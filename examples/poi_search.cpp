// POI search — the paper's motivating scenario (§1): a user asks for nearby
// Italian restaurants; the service computes the *network* distance from the
// user's location to each candidate with distance queries, then ranks them.
//
// Euclidean proximity is a poor proxy on road networks (rivers, one-way
// systems, highway access); this example prints both rankings side by side.
//
// Build & run:  ./build/examples/poi_search
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/ah_query.h"
#include "gen/road_gen.h"
#include "hier/many_to_many.h"
#include "util/rng.h"

int main() {
  using namespace ah;

  RoadGenParams gen;
  gen.cols = gen.rows = 80;
  gen.seed = 99;
  const Graph graph = GenerateRoadNetwork(gen);
  const AhIndex index = AhIndex::Build(graph);

  // The user stands at a random intersection; 25 restaurants are scattered
  // over the map. The restaurant set is fixed, so we bucket-preprocess it
  // once (ManyToMany) and answer the whole ranking with a single upward
  // search instead of 25 point-to-point queries.
  Rng rng(7);
  const NodeId user = static_cast<NodeId>(rng.Uniform(graph.NumNodes()));
  std::vector<NodeId> restaurants;
  for (int i = 0; i < 25; ++i) {
    const NodeId r = static_cast<NodeId>(rng.Uniform(graph.NumNodes()));
    if (r != user) restaurants.push_back(r);
  }
  const ManyToMany poi_oracle(index.search_graph(), restaurants);
  const std::vector<Dist> network_dists =
      poi_oracle.DistancesFrom({&user, 1});

  struct Poi {
    NodeId node;
    Dist network;
    double euclid;
  };
  std::vector<Poi> pois;
  for (std::size_t i = 0; i < restaurants.size(); ++i) {
    pois.push_back(Poi{restaurants[i], network_dists[i],
                       L2Distance(graph.Coord(user),
                                  graph.Coord(restaurants[i]))});
  }

  std::printf("user at node %u (%d, %d); %zu candidate restaurants\n\n", user,
              graph.Coord(user).x, graph.Coord(user).y, pois.size());

  // Ties broken by node id so the printed ranking is deterministic.
  std::sort(pois.begin(), pois.end(), [](const Poi& a, const Poi& b) {
    if (a.network != b.network) return a.network < b.network;
    return a.node < b.node;
  });
  std::printf("top 5 by NETWORK distance (what the service should return):\n");
  for (std::size_t i = 0; i < 5 && i < pois.size(); ++i) {
    std::printf("  #%zu node %-6u travel time %-8llu (euclid %.0f)\n", i + 1,
                pois[i].node,
                static_cast<unsigned long long>(pois[i].network),
                pois[i].euclid);
  }

  auto by_euclid = pois;
  std::sort(by_euclid.begin(), by_euclid.end(),
            [](const Poi& a, const Poi& b) {
              if (a.euclid != b.euclid) return a.euclid < b.euclid;
              return a.node < b.node;
            });
  std::printf("\ntop 5 by EUCLIDEAN distance (naive ranking):\n");
  int disagreements = 0;
  for (std::size_t i = 0; i < 5 && i < by_euclid.size(); ++i) {
    std::printf("  #%zu node %-6u euclid %-8.0f (travel time %llu)\n", i + 1,
                by_euclid[i].node, by_euclid[i].euclid,
                static_cast<unsigned long long>(by_euclid[i].network));
    if (by_euclid[i].node != pois[i].node) ++disagreements;
  }
  std::printf("\n%d of the top-5 positions differ between the rankings —\n",
              disagreements);
  std::printf("network distance queries matter, and AH answers each in\n");
  std::printf("microseconds.\n");
  return 0;
}

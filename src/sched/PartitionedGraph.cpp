//===- sched/PartitionedGraph.cpp - DDG + cluster assignment + copies ------===//

#include "sched/PartitionedGraph.h"

#include <cassert>

using namespace hcvliw;

unsigned PartitionedGraph::numCopies() const {
  unsigned N = 0;
  for (const auto &Node : Nodes)
    if (Node.OrigOp < 0)
      ++N;
  return N;
}

/// Counting sort of the edge list into the CSR rows. Stable: within
/// one node's row, edge indices stay in insertion order — exactly the
/// iteration order of the per-node push_back rows this replaces.
void PartitionedGraph::finalizeAdjacency() {
  const unsigned N = size();
  const unsigned E = static_cast<unsigned>(Edges.size());
  InStartOff = N + 1;
  OutIxOff = 2 * (N + 1);
  InIxOff = OutIxOff + E;
  Adj.assign(static_cast<size_t>(InIxOff) + E, 0);
  unsigned *OutStart = Adj.data();
  unsigned *InStart = OutStart + InStartOff;
  unsigned *OutIx = OutStart + OutIxOff;
  unsigned *InIx = OutStart + InIxOff;
  for (const PGEdge &Ed : Edges) {
    ++OutStart[Ed.Src + 1];
    ++InStart[Ed.Dst + 1];
  }
  for (unsigned I = 0; I < N; ++I) {
    OutStart[I + 1] += OutStart[I];
    InStart[I + 1] += InStart[I];
  }
  // Fill using the start arrays as cursors, then shift them back.
  for (unsigned Ix = 0; Ix < E; ++Ix) {
    OutIx[OutStart[Edges[Ix].Src]++] = Ix;
    InIx[InStart[Edges[Ix].Dst]++] = Ix;
  }
  for (unsigned I = N; I > 0; --I) {
    OutStart[I] = OutStart[I - 1];
    InStart[I] = InStart[I - 1];
  }
  OutStart[0] = 0;
  InStart[0] = 0;
}

PartitionedGraph PartitionedGraph::fromRaw(unsigned NumClusters,
                                           std::vector<PGNode> RawNodes,
                                           std::vector<PGEdge> RawEdges) {
  PartitionedGraph PG;
  PG.NumClustersVal = NumClusters;
  PG.Nodes = std::move(RawNodes);
  PG.Edges = std::move(RawEdges);
#ifndef NDEBUG
  for (const PGEdge &E : PG.Edges)
    assert(E.Src < PG.Nodes.size() && E.Dst < PG.Nodes.size() &&
           "raw edge endpoint out of range");
#endif
  PG.finalizeAdjacency();
  return PG;
}

PartitionedGraph PartitionedGraph::build(const Loop &L, const DDG &G,
                                         const IsaTable &Isa,
                                         const Partition &P,
                                         unsigned NumClusters,
                                         unsigned BusLatency) {
  PartitionedGraph PG;
  buildInto(PG, L, G, Isa, P, NumClusters, BusLatency);
  return PG;
}

void PartitionedGraph::buildInto(PartitionedGraph &PG, const Loop &L,
                                 const DDG &G, const IsaTable &Isa,
                                 const Partition &P, unsigned NumClusters,
                                 unsigned BusLatency,
                                 std::vector<int> *CopyScratch,
                                 const std::vector<unsigned> *NodeLatencies) {
  assert(P.size() == G.size() && "partition does not cover the DDG");
  PG.NumClustersVal = NumClusters;
  PG.Nodes.clear();
  PG.Edges.clear();

  for (unsigned I = 0; I < G.size(); ++I) {
    assert(P.cluster(I) < NumClusters && "cluster id out of range");
    PGNode N;
    N.Domain = P.cluster(I);
    N.Op = L.Ops[I].Op;
    N.LatencyCycles = static_cast<uint16_t>(Isa.latency(N.Op));
    N.Kind = fuKindOf(N.Op);
    N.OrigOp = static_cast<int>(I);
    PG.Nodes.push_back(N);
  }

  std::vector<unsigned> LocalLat;
  if (!NodeLatencies) {
    Isa.nodeLatenciesInto(LocalLat, L);
    NodeLatencies = &LocalLat;
  }
  const std::vector<unsigned> &NodeLat = *NodeLatencies;
  assert(NodeLat.size() == G.size() && "latency vector does not match");

  // One copy per (produced value, destination cluster); consumers at
  // different distances share it (the copy follows the producer at
  // distance 0; each consumer keeps its original distance). The flat
  // index table replaces the old std::map: same lookup semantics, no
  // per-copy node allocation.
  std::vector<int> LocalCopyIx;
  std::vector<int> &CopyIx = CopyScratch ? *CopyScratch : LocalCopyIx;
  CopyIx.assign(static_cast<size_t>(G.size()) * NumClusters, -1);
  auto copyFor = [&](unsigned Value, unsigned DstCluster) -> unsigned {
    int &Slot = CopyIx[static_cast<size_t>(Value) * NumClusters + DstCluster];
    if (Slot >= 0)
      return static_cast<unsigned>(Slot);
    PGNode C;
    C.Domain = PG.busDomain();
    C.Op = Opcode::Copy;
    C.LatencyCycles = static_cast<uint16_t>(BusLatency);
    C.Kind = FUKind::Bus;
    C.OrigOp = -1;
    C.CopiedValue = static_cast<int>(Value);
    unsigned Ix = PG.size();
    PG.Nodes.push_back(C);
    PG.Edges.push_back({Value, Ix, /*Distance=*/0,
                        /*LatencyCycles=*/NodeLat[Value],
                        /*CarriesValue=*/true});
    Slot = static_cast<int>(Ix);
    return Ix;
  };

  for (const auto &E : G.edges()) {
    bool Carries = isValueCarrying(E.Kind);
    unsigned Lat = edgeLatency(E, NodeLat);
    if (!Carries || P.cluster(E.Src) == P.cluster(E.Dst)) {
      PG.Edges.push_back({E.Src, E.Dst, E.Distance, Lat, Carries});
      continue;
    }
    unsigned C = copyFor(E.Src, P.cluster(E.Dst));
    PG.Edges.push_back({C, E.Dst, E.Distance, /*LatencyCycles=*/BusLatency,
                        /*CarriesValue=*/true});
  }

  PG.finalizeAdjacency();
}

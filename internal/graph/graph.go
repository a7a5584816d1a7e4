// Package graph implements the directed multigraph and deterministic
// shortest-path routing used to derive end-to-end probing paths from
// generated or discovered topologies.
package graph

import (
	"container/heap"
	"fmt"
	"math"
)

// Edge is a directed edge. Edges are identified by dense integer IDs in
// insertion order; IDs double as link identifiers in the tomography layers.
type Edge struct {
	ID     int
	From   int
	To     int
	Weight float64
}

// Digraph is a directed multigraph over nodes 0..N-1.
// The zero value is an empty graph ready to use.
type Digraph struct {
	out   [][]int // node -> edge IDs leaving it
	in    [][]int // node -> edge IDs entering it
	edges []Edge
}

// New returns a graph with n isolated nodes.
func New(n int) *Digraph {
	return &Digraph{out: make([][]int, n), in: make([][]int, n)}
}

// AddNode appends a node and returns its ID.
func (g *Digraph) AddNode() int {
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return len(g.out) - 1
}

// NumNodes returns the number of nodes.
func (g *Digraph) NumNodes() int { return len(g.out) }

// NumEdges returns the number of directed edges.
func (g *Digraph) NumEdges() int { return len(g.edges) }

// AddEdge inserts a directed edge and returns its ID.
func (g *Digraph) AddEdge(from, to int, w float64) int {
	if from < 0 || from >= len(g.out) || to < 0 || to >= len(g.out) {
		panic(fmt.Sprintf("graph: AddEdge(%d,%d) out of range (n=%d)", from, to, len(g.out)))
	}
	if w < 0 {
		panic(fmt.Sprintf("graph: negative edge weight %g", w))
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Weight: w})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	return id
}

// AddBidirectional inserts the two directed edges a→b and b→a and returns
// their IDs. Network links are full duplex but their two directions have
// independent loss processes, hence two distinct edges.
func (g *Digraph) AddBidirectional(a, b int, w float64) (ab, ba int) {
	return g.AddEdge(a, b, w), g.AddEdge(b, a, w)
}

// Edge returns the edge with the given ID.
func (g *Digraph) Edge(id int) Edge {
	return g.edges[id]
}

// OutEdges returns the IDs of edges leaving node n. The slice is shared; do
// not modify it.
func (g *Digraph) OutEdges(n int) []int { return g.out[n] }

// OutDegree returns the out-degree of node n.
func (g *Digraph) OutDegree(n int) int { return len(g.out[n]) }

// InDegree returns the in-degree of node n.
func (g *Digraph) InDegree(n int) int { return len(g.in[n]) }

// HasEdgeBetween reports whether any directed edge from a to b exists.
func (g *Digraph) HasEdgeBetween(a, b int) bool {
	for _, id := range g.out[a] {
		if g.edges[id].To == b {
			return true
		}
	}
	return false
}

// PathTree is a shortest-path tree rooted at Src, as produced by Dijkstra.
type PathTree struct {
	Src        int
	Dist       []float64 // +Inf for unreachable nodes
	ParentEdge []int     // edge ID entering each node on its shortest path; -1 at Src / unreachable
}

// Reachable reports whether node n is reachable from the root.
func (t *PathTree) Reachable(n int) bool { return !math.IsInf(t.Dist[n], 1) }

// PathTo returns the edge IDs of the tree path from Src to dst, or nil if
// dst is unreachable (or is the source itself).
func (t *PathTree) PathTo(dst int, g *Digraph) []int {
	if !t.Reachable(dst) || dst == t.Src {
		return nil
	}
	var rev []int
	for n := dst; n != t.Src; {
		eid := t.ParentEdge[n]
		if eid < 0 {
			return nil
		}
		rev = append(rev, eid)
		n = g.Edge(eid).From
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

type pqItem struct {
	node int
	dist float64
	hops int
}

type pq []pqItem

func (q pq) Len() int { return len(q) }
func (q pq) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	if q[i].hops != q[j].hops {
		return q[i].hops < q[j].hops
	}
	return q[i].node < q[j].node
}
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// ShortestPathTree runs Dijkstra from src with a deterministic tie-break
// (fewer hops, then smaller predecessor node, then smaller edge ID) so that
// repeated runs — and runs from different beacons — produce stable routes.
func (g *Digraph) ShortestPathTree(src int) *PathTree {
	n := g.NumNodes()
	t := &PathTree{Src: src, Dist: make([]float64, n), ParentEdge: make([]int, n)}
	hops := make([]int, n)
	done := make([]bool, n)
	for i := range t.Dist {
		t.Dist[i] = math.Inf(1)
		t.ParentEdge[i] = -1
	}
	t.Dist[src] = 0
	q := &pq{{node: src}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, eid := range g.out[u] {
			e := g.edges[eid]
			nd := t.Dist[u] + e.Weight
			nh := hops[u] + 1
			v := e.To
			better := nd < t.Dist[v]
			if !better && nd == t.Dist[v] && !done[v] {
				// Deterministic tie-break.
				if nh < hops[v] {
					better = true
				} else if nh == hops[v] {
					cur := t.ParentEdge[v]
					if cur >= 0 {
						cp := g.edges[cur].From
						if u < cp || (u == cp && eid < cur) {
							better = true
						}
					}
				}
			}
			if better {
				t.Dist[v] = nd
				hops[v] = nh
				t.ParentEdge[v] = eid
				heap.Push(q, pqItem{node: v, dist: nd, hops: nh})
			}
		}
	}
	return t
}

// Connected reports whether every node is reachable from node 0 following
// directed edges (sufficient for our symmetric generators).
func (g *Digraph) Connected() bool {
	if g.NumNodes() == 0 {
		return true
	}
	seen := make([]bool, g.NumNodes())
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, eid := range g.out[u] {
			v := g.edges[eid].To
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == g.NumNodes()
}

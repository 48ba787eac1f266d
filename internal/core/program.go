// Package core implements Vertexica's contribution: a Pregel-style
// vertex-centric execution layer that runs entirely on the relational
// engine. Graphs live in three relational tables (vertex, edge,
// message); a coordinator "stored procedure" drives supersteps; worker
// "UDFs" execute the user's vertex-compute function over hash-
// partitioned, sorted unions of the three tables (§2.2–2.3 of the
// paper), with the paper's four optimizations implemented and
// individually switchable for ablation: Table Unions, Parallel Workers,
// Vertex Batching, and Update-vs-Replace.
package core

import (
	"cmp"
	"fmt"
	"slices"
)

// Edge is one out-edge as seen by a vertex program, including the
// metadata attributes the paper's datasets carry (weight, creation
// timestamp, and type).
type Edge struct {
	Src     int64
	Dst     int64
	Weight  float64
	Type    string
	Created int64
}

// Message is a value in flight between two vertices across a superstep
// barrier. Values are strings: the vertex table stores the vertex value
// as VARCHAR and algorithms bring their own codecs, mirroring how the
// paper's UDFs parse untyped tuples.
type Message struct {
	Src   int64
	Dst   int64
	Value string
}

// VertexProgram is the user-supplied graph query: Compute runs once per
// superstep for every active vertex, exactly like Pregel.
type VertexProgram interface {
	// Compute receives the vertex context and this superstep's incoming
	// messages. Implementations mutate state through the context
	// (ModifyVertexValue, SendMessage, VoteToHalt).
	Compute(ctx *VertexContext, msgs []Message) error
}

// Combiner merges the messages headed to one destination vertex into a
// single message (Pregel's message combiner, e.g. sum for PageRank, min
// for SSSP). The coordinator calls it once per destination that has at
// least two messages, with their values in (src, value) order, and
// delivers the result as one message with source -1. values is only
// valid for the duration of the call.
type Combiner func(dst int64, values []string) string

// AggregatorKind enumerates the global aggregators supported.
type AggregatorKind uint8

// Aggregator kinds.
const (
	AggregateSum AggregatorKind = iota
	AggregateMin
	AggregateMax
)

// AggregatorSpec declares a named global aggregator a program uses.
type AggregatorSpec struct {
	Name string
	Kind AggregatorKind
}

// HasAggregators is implemented by programs that use global aggregators.
type HasAggregators interface {
	Aggregators() []AggregatorSpec
}

// HasCombiner is implemented by programs that provide a message
// combiner.
type HasCombiner interface {
	Combiner() Combiner
}

// VertexContext exposes the worker API from the paper
// (getVertexValue, getMessages, getOutEdges, modifyVertexValue,
// sendMessage, voteToHalt) to the vertex program. A context is valid
// only during the Compute call it is passed to: workers reuse it for
// the next vertex.
type VertexContext struct {
	id        int64
	superstep int
	value     string
	halted    bool
	outEdges  []Edge
	numVerts  int64

	valueChanged bool
	votedHalt    bool
	outbox       []Message

	aggPrev map[string]float64 // previous superstep's aggregate values
	aggCur  map[string]float64 // this vertex's contributions
	aggSeen map[string]bool
	aggKind map[string]AggregatorKind
}

// Id returns the vertex id.
func (c *VertexContext) Id() int64 { return c.id }

// Superstep returns the current superstep number (0-based).
func (c *VertexContext) Superstep() int { return c.superstep }

// NumVertices returns the number of vertices in the graph.
func (c *VertexContext) NumVertices() int64 { return c.numVerts }

// GetVertexValue returns the current vertex value.
func (c *VertexContext) GetVertexValue() string { return c.value }

// ModifyVertexValue sets the vertex value; the coordinator writes it
// back through the Update-vs-Replace policy after the superstep.
func (c *VertexContext) ModifyVertexValue(v string) {
	if v != c.value {
		c.value = v
		c.valueChanged = true
	}
}

// GetOutEdges returns the vertex's out-edges, ordered by (dst, weight,
// type, created). The slice is shared with the coordinator's cached
// adjacency and is read-only: a program must neither modify nor append
// to it.
func (c *VertexContext) GetOutEdges() []Edge { return c.outEdges }

// OutDegree returns the number of out-edges.
func (c *VertexContext) OutDegree() int { return len(c.outEdges) }

// SendMessage sends a value to another vertex for the next superstep.
func (c *VertexContext) SendMessage(dst int64, value string) {
	c.outbox = append(c.outbox, Message{Src: c.id, Dst: dst, Value: value})
}

// SendMessageToAllNeighbors sends the value along every out-edge.
func (c *VertexContext) SendMessageToAllNeighbors(value string) {
	for _, e := range c.outEdges {
		c.SendMessage(e.Dst, value)
	}
}

// VoteToHalt marks the vertex halted; an incoming message reactivates
// it (Pregel semantics).
func (c *VertexContext) VoteToHalt() { c.votedHalt = true }

// Aggregate contributes a value to a named global aggregator; the
// merged result is visible to every vertex in the NEXT superstep.
func (c *VertexContext) Aggregate(name string, v float64) error {
	kind, ok := c.aggKind[name]
	if !ok {
		return fmt.Errorf("core: vertex %d aggregated to undeclared aggregator %q", c.id, name)
	}
	if !c.aggSeen[name] {
		c.aggSeen[name] = true
		c.aggCur[name] = v
		return nil
	}
	switch kind {
	case AggregateSum:
		c.aggCur[name] += v
	case AggregateMin:
		if v < c.aggCur[name] {
			c.aggCur[name] = v
		}
	case AggregateMax:
		if v > c.aggCur[name] {
			c.aggCur[name] = v
		}
	}
	return nil
}

// AggregatedValue returns the previous superstep's merged value of a
// named aggregator. ok is false in superstep 0 or for unknown names.
func (c *VertexContext) AggregatedValue(name string) (float64, bool) {
	v, ok := c.aggPrev[name]
	return v, ok
}

// reset points the context at the next vertex of a worker's
// partition. The context, its outbox and its aggregator maps are
// reused from vertex to vertex.
func (c *VertexContext) reset(u *workUnit, step int) {
	c.id = u.id
	c.superstep = step
	c.value = u.value
	c.halted = u.halted
	c.outEdges = u.edges
	c.valueChanged = false
	c.votedHalt = false
	c.outbox = c.outbox[:0]
	clear(c.aggCur)
	clear(c.aggSeen)
}

// compareEdges is the total order on one vertex's out-edges: by
// destination, then weight, type and creation time. Every input path
// hands edges to GetOutEdges in this order, so the order depends only
// on the edge set.
func compareEdges(a, b Edge) int {
	if c := cmp.Compare(a.Dst, b.Dst); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Weight, b.Weight); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Type, b.Type); c != 0 {
		return c
	}
	return cmp.Compare(a.Created, b.Created)
}

// sortEdges orders one vertex's edges by compareEdges.
func sortEdges(es []Edge) { slices.SortFunc(es, compareEdges) }

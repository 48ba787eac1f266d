package core

import (
	"cmp"
	"slices"

	"repro/internal/sched"
)

// The message shuffle at the superstep barrier. Workers route every
// message they emit into a bucket by destination range; at the barrier
// each bucket is sorted and combined on its own, in parallel. Every
// destination falls in exactly one bucket and the buckets cover
// ascending ranges, so concatenating them in bucket order yields the
// same canonical (dst, src, value) order, and the same per-destination
// fold order, as one global sort — at any worker or bucket count.

// shuffle holds the destination-range bucket bounds of one run.
type shuffle struct {
	// bounds are the ascending lower bounds of buckets 1..n-1; bucket 0
	// takes every destination below bounds[0] and the last bucket every
	// destination from its bound up.
	bounds []int64
}

// newShuffle splits the sorted vertex ids into n ranges of equal vertex
// count. With fewer ids than buckets some ranges are empty.
func newShuffle(sortedIDs []int64, n int) *shuffle {
	s := &shuffle{}
	if len(sortedIDs) == 0 {
		return s
	}
	for b := 1; b < n; b++ {
		s.bounds = append(s.bounds, sortedIDs[b*len(sortedIDs)/n])
	}
	return s
}

// buckets is the number of destination ranges.
func (s *shuffle) buckets() int { return len(s.bounds) + 1 }

// bucket returns the range that holds dst: the number of bounds at or
// below it.
func (s *shuffle) bucket(dst int64) int {
	lo, hi := 0, len(s.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.bounds[mid] <= dst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// route appends msgs to their buckets in out (one slice per bucket).
func (s *shuffle) route(out [][]Message, msgs []Message) {
	for _, m := range msgs {
		b := s.bucket(m.Dst)
		out[b] = append(out[b], m)
	}
}

// exchange gathers each bucket's messages from every worker (routed[w]
// is worker w's buckets), sorts them by compareMessages and, with a
// combiner, folds each destination's messages into one. Buckets run in
// parallel on up to workers goroutines drawn from budget. The result
// holds one slice per bucket, in range order.
func (s *shuffle) exchange(routed [][][]Message, combine Combiner, budget *sched.Budget, workers int) [][]Message {
	out := make([][]Message, s.buckets())
	sched.ForEach(budget, len(out), workers, func(b int) {
		n := 0
		for _, w := range routed {
			n += len(w[b])
		}
		if n == 0 {
			return
		}
		msgs := make([]Message, 0, n)
		for _, w := range routed {
			msgs = append(msgs, w[b]...)
		}
		sortMessages(msgs)
		if combine != nil {
			msgs = combineMessages(msgs, combine)
		}
		out[b] = msgs
	})
	return out
}

// compareMessages is the canonical message order (dst, src, value),
// used both for the message table and for the fold order of combining,
// which keeps float combining bit-identical at any worker count.
func compareMessages(a, b Message) int {
	if c := cmp.Compare(a.Dst, b.Dst); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	return cmp.Compare(a.Value, b.Value)
}

// sortMessages orders messages by compareMessages.
func sortMessages(msgs []Message) { slices.SortFunc(msgs, compareMessages) }

// combineMessages folds each destination's messages into one with the
// program's combiner (Pregel message combining). msgs must be sorted by
// compareMessages; it is combined in place and the combined prefix is
// returned. A destination with a single message keeps it unchanged; a
// combined message has source -1.
func combineMessages(msgs []Message, combine Combiner) []Message {
	out := msgs[:0]
	var values []string
	for i := 0; i < len(msgs); {
		j := i + 1
		for j < len(msgs) && msgs[j].Dst == msgs[i].Dst {
			j++
		}
		if j-i == 1 {
			out = append(out, msgs[i])
			i = j
			continue
		}
		values = values[:0]
		for _, m := range msgs[i:j] {
			values = append(values, m.Value)
		}
		dst := msgs[i].Dst
		out = append(out, Message{Src: -1, Dst: dst, Value: combine(dst, values)})
		i = j
	}
	return out
}

// Package metrics provides the measurement vocabulary of the DPS
// evaluation: one node's traffic counts split by message kind, their
// window deltas for the 100-step sampling windows of the paper's
// Figures 3(c)–(g), and the median/max/percentile aggregations the plots
// report. The engine that runs the figures keeps the counts, one per
// node, and its delivery accounting (the conform package's sim runtime
// and recorder).
package metrics

import "sort"

// Kind coarsely classifies protocol messages the way the paper's plots do:
// event diffusion, overlay control (subscriptions, views, merges), and
// failure-detection heartbeats.
type Kind uint8

// Message kinds.
const (
	KindControl Kind = iota
	KindEvent
	KindHeartbeat
	kindCount
)

// Kinded is implemented by messages that declare their metric kind.
// Messages without it count as control traffic.
type Kinded interface {
	MetricKind() Kind
}

// KindOf classifies an arbitrary message payload.
func KindOf(msg any) Kind {
	if k, ok := msg.(Kinded); ok {
		return k.MetricKind()
	}
	return KindControl
}

// Counts is one node's cumulative traffic.
type Counts struct {
	In  [kindCount]int64
	Out [kindCount]int64
}

// InTotal returns messages received across all kinds.
func (c Counts) InTotal() int64 { return c.In[0] + c.In[1] + c.In[2] }

// OutTotal returns messages sent across all kinds.
func (c Counts) OutTotal() int64 { return c.Out[0] + c.Out[1] + c.Out[2] }

// InOf returns messages received of one kind.
func (c Counts) InOf(k Kind) int64 { return c.In[k] }

// OutOf returns messages sent of one kind.
func (c Counts) OutOf(k Kind) int64 { return c.Out[k] }

// Sub returns c minus o, component-wise (window delta).
func (c Counts) Sub(o Counts) Counts {
	var d Counts
	for i := range c.In {
		d.In[i] = c.In[i] - o.In[i]
		d.Out[i] = c.Out[i] - o.Out[i]
	}
	return d
}

// Median returns the median of xs (average of the two central elements for
// even lengths); 0 for empty input. The paper defines the median node as
// the one sending fewer messages than half the nodes and more than the
// other half.
func Median(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]int64, len(xs))
	copy(s, xs)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return float64(s[mid])
	}
	return float64(s[mid-1]+s[mid]) / 2
}

// Max returns the maximum of xs; 0 for empty input.
func Max(xs []int64) int64 {
	var m int64
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by nearest-rank; 0
// for empty input.
func Percentile(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]int64, len(xs))
	copy(s, xs)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p*float64(len(s)-1) + 0.5)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// Collect materialises one per-node statistic over a node population,
// filling zeros for nodes the delta map has never seen — the population
// must include silent nodes or medians are biased upward.
func Collect[ID ~int64](ids []ID, deltas map[int64]Counts, get func(Counts) int64) []int64 {
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = get(deltas[int64(id)])
	}
	return out
}

package main

import (
	"runtime"
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
)

// wireStats is the codec replayed over the messages a traced run sent.
type wireStats struct {
	encodeNs, decodeNs, bytesPerMsg, decodeAllocs float64
	msgs                                          int
}

// replayWire encodes and decodes the sampled send mix with the core wire
// codec, the work tcpnet does per message. It runs after the cluster has
// stopped, so the allocation count is the decoder's alone.
func replayWire(sample []any) wireStats {
	var frames [][]byte
	var msgs []any
	var bytes int
	for _, m := range sample {
		b, err := core.AppendMessage(nil, m)
		if err != nil {
			continue // not encodable: never reaches a socket either
		}
		frames = append(frames, b)
		msgs = append(msgs, m)
		bytes += len(b)
	}
	if len(msgs) == 0 {
		return wireStats{}
	}
	reps := max(1, 50_000/len(msgs))
	buf := make([]byte, 0, 4096)
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, m := range msgs {
			buf, _ = core.AppendMessage(buf[:0], m)
		}
	}
	enc := time.Since(t0)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, f := range frames {
			_, _ = core.DecodeMessage(f)
		}
	}
	dec := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	n := float64(reps * len(msgs))
	return wireStats{
		encodeNs:     float64(enc.Nanoseconds()) / n,
		decodeNs:     float64(dec.Nanoseconds()) / n,
		bytesPerMsg:  float64(bytes) / float64(len(msgs)),
		decodeAllocs: float64(ms1.Mallocs-ms0.Mallocs) / n,
		msgs:         len(msgs),
	}
}

// filterStats times the filter layer on the workload's own inputs.
type filterStats struct{ matchNs, includesNs float64 }

// timeFilters times Subscription.Matches over the workload's
// subscription × event pairs and AttrFilter.Includes over pairs of its
// subscriptions' same-attribute filters.
func timeFilters(subs []filter.Subscription, events []filter.Event) filterStats {
	var fs filterStats
	if len(subs) == 0 || len(events) == 0 {
		return fs
	}
	const budget = 400_000 // calls per measurement
	reps := max(1, budget/(len(subs)*len(events)))
	hits := 0
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, e := range events {
			for _, s := range subs {
				if s.Matches(e) {
					hits++
				}
			}
		}
	}
	fs.matchNs = float64(time.Since(t0).Nanoseconds()) / float64(reps*len(subs)*len(events))

	byAttr := make(map[string][]filter.AttrFilter)
	var attrs []string
	for _, s := range subs {
		fl, err := filter.SubscriptionFilters(s)
		if err != nil {
			continue
		}
		for _, f := range fl {
			if byAttr[f.Attr()] == nil {
				attrs = append(attrs, f.Attr())
			}
			byAttr[f.Attr()] = append(byAttr[f.Attr()], f)
		}
	}
	var pairs [][2]filter.AttrFilter
	for k := 1; len(pairs) < 4096 && k < 64; k++ {
		for _, a := range attrs {
			g := byAttr[a]
			for i := 0; i < len(g) && len(pairs) < 4096; i++ {
				pairs = append(pairs, [2]filter.AttrFilter{g[i], g[(i+k)%len(g)]})
			}
		}
	}
	reps = max(1, budget/len(pairs))
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, p := range pairs {
			if p[0].Includes(p[1]) {
				hits++
			}
		}
	}
	fs.includesNs = float64(time.Since(t0).Nanoseconds()) / float64(reps*len(pairs))
	sink = hits
	return fs
}

// sink keeps the timed loops' results live.
var sink int

package metrics

import "testing"

type kindedMsg struct{ k Kind }

func (m kindedMsg) MetricKind() Kind { return m.k }

func TestKindOf(t *testing.T) {
	if KindOf("plain") != KindControl {
		t.Error("unkinded message should be control")
	}
	if KindOf(kindedMsg{KindEvent}) != KindEvent {
		t.Error("kinded message misclassified")
	}
	if KindOf(kindedMsg{KindHeartbeat}) != KindHeartbeat {
		t.Error("heartbeat misclassified")
	}
}

func TestMedianMaxPercentile(t *testing.T) {
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %v", got)
	}
	if got := Median([]int64{5}); got != 5 {
		t.Errorf("Median([5]) = %v", got)
	}
	if got := Median([]int64{1, 9, 5}); got != 5 {
		t.Errorf("Median odd = %v", got)
	}
	if got := Median([]int64{1, 3, 5, 9}); got != 4 {
		t.Errorf("Median even = %v", got)
	}
	if got := Max([]int64{3, 9, 1}); got != 9 {
		t.Errorf("Max = %v", got)
	}
	if got := Max(nil); got != 0 {
		t.Errorf("Max(nil) = %v", got)
	}
	if got := Percentile([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9); got != 9 {
		t.Errorf("P90 = %v", got)
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile(nil) = %v", got)
	}
}

func TestCollectFillsZeros(t *testing.T) {
	var two Counts
	two.Out[KindEvent] = 1
	deltas := map[int64]Counts{2: two}
	vals := Collect([]int64{1, 2, 3}, deltas, Counts.OutTotal)
	if vals[0] != 0 || vals[1] != 1 || vals[2] != 0 {
		t.Errorf("Collect = %v", vals)
	}
}

func TestPercentileEdges(t *testing.T) {
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile(nil) = %d", got)
	}
	xs := []int64{5}
	if got := Percentile(xs, 0); got != 5 {
		t.Errorf("p0 of singleton = %d", got)
	}
	if got := Percentile(xs, 1); got != 5 {
		t.Errorf("p100 of singleton = %d", got)
	}
	many := []int64{9, 1, 5, 3, 7} // unsorted on purpose
	if got := Percentile(many, 0); got != 1 {
		t.Errorf("p0 = %d, want 1", got)
	}
	if got := Percentile(many, 1); got != 9 {
		t.Errorf("p100 = %d, want 9", got)
	}
	if got := Percentile(many, 0.5); got != 5 {
		t.Errorf("p50 = %d, want 5", got)
	}
	// Percentile must not mutate its input.
	if many[0] != 9 {
		t.Error("Percentile sorted the caller's slice")
	}
}

package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// machineStamp identifies where a result was measured, so a noisy run
// can be explained rather than only discarded.
type machineStamp struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	StealShare float64 `json:"steal_share"` // over this run, from /proc/stat
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTimes is the aggregate line of /proc/stat: steal and total jiffies.
type cpuTimes struct{ steal, total uint64 }

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	var t cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			continue
		}
		// user nice system idle iowait irq softirq steal [guest guest_nice]:
		// guest time is already counted in user.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal += v
		}
	}
	return t
}

// stealShare is the fraction of machine time the hypervisor took between
// two readings.
func stealShare(a, b cpuTimes) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

func stamp(from cpuTimes) machineStamp {
	return machineStamp{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StealShare: stealShare(from, readCPUTimes()),
	}
}

// processCPU returns the CPU time (user + system) the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample is the Go runtime's view of a phase: allocations and the
// CPU the garbage collector took.
type runtimeSample struct {
	mallocs  uint64
	gcCPU    float64
	totalCPU float64
}

var runtimeMetricNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	s := runtimeSample{mallocs: ms.Mallocs}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	return s
}

// heapInUse returns the live heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

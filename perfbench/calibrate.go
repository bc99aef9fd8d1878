package main

import "time"

// The machine this benchmark runs on changes speed by tens of percent
// within seconds (a shared host: hyperthread siblings, frequency), and a
// run's median does not average that away. So each measured window is
// followed by a fixed reference kernel, and the window's times are scaled
// to the reference speed at which that kernel takes refKernelNs: a window
// measured while the kernel ran 20% slow reports its times 20% shorter.
// Rates and times are therefore "at reference speed"; the same program on
// a uniformly faster machine reports about the same numbers.
//
// refKernelNs is about what the warm kernel takes on the 2-vCPU Xeon VM
// the benchmark was built on.
const (
	refKernelNs  = 300_000
	kernelOps    = 20_000
	kernelMapLen = 8192
)

var kernelMap = make(map[uint64]uint64, kernelMapLen)

func kernel() {
	for i := uint64(0); i < kernelOps; i++ {
		kernelMap[(i*2654435761)%kernelMapLen] += i
	}
}

// slowdown runs the reference kernel twice and returns how much slower
// than the reference speed the machine ran the second run (2 = half
// speed). The first run warms the caches: a measured window leaves them
// full of its own data, and timed cold, the kernel reads that more than
// the machine's speed — on the cycle engine, scaling by the cold kernel
// spread CPU per pair more from run to run than not scaling at all.
func slowdown() float64 {
	kernel()
	t := time.Now()
	kernel()
	return float64(time.Since(t).Nanoseconds()) / refKernelNs
}

package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealSample is the machine's CPU time counters from /proc/stat: the
// time the hypervisor ran other guests on this machine's virtual CPUs,
// and the total.
type stealSample struct{ steal, total float64 }

func readSteal() stealSample {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var s stealSample
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // user … steal; guest time is already in user
			s.total += x
		}
		if i == 7 {
			s.steal = x
		}
	}
	return s
}

// since returns the steal share of CPU time between two samples (NaN
// when /proc/stat is unavailable).
func (s stealSample) since(prev stealSample) float64 {
	return ratio(s.steal-prev.steal, s.total-prev.total)
}

package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// The sandbox is a virtual machine with a few cores of a shared host. When
// the host is busy it runs the machine's cores only part of the time: every
// operation then takes longer by a factor that has nothing to do with the
// program (a factor of 3, for minutes, has been seen). The kernel counts
// that time as "steal" in /proc/stat, apart from the time the machine's
// own processes ran, so it can be taken out: a block of work that took wall
// seconds while the machine's cores were busy for b CPU-seconds and stolen
// for s would have taken wall·b/(b+s) on a host that ran them all the time.
// On one busy core b+s is wall, so that is wall−s; on two it is wall−s/2.
// Every end-to-end timing is measured in blocks of about a second and
// scaled this way. With no steal the factor is exactly 1.

// cpuTimes is the machine's cumulative CPU time in USER_HZ ticks.
type cpuTimes struct {
	busy   float64 // user, nice, system, irq, softirq
	stolen float64
}

// readCPUTimes reads the first line of /proc/stat. Where there is none the
// times read zero and nothing is corrected.
func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return parseCPUTimes(line)
}

// parseCPUTimes parses "cpu user nice system idle iowait irq softirq steal ...".
func parseCPUTimes(line string) cpuTimes {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	at := func(i int) float64 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0
		}
		return v
	}
	return cpuTimes{busy: at(1) + at(2) + at(3) + at(6) + at(7), stolen: at(8)}
}

// keptSince is the share of the CPU time the machine asked for since
// earlier that the host gave it: 1 with no steal, 1/3 when the host ran the
// machine's cores a third of the time.
func (now cpuTimes) keptSince(earlier cpuTimes) float64 {
	busy, stolen := now.busy-earlier.busy, now.stolen-earlier.stolen
	if stolen <= 0 || busy < 0 {
		return 1
	}
	return busy / (busy + stolen)
}

// block is a stretch of timed work with the machine's CPU times at its
// start.
type block struct {
	start time.Time
	cpu   cpuTimes
}

func startBlock() block { return block{start: time.Now(), cpu: readCPUTimes()} }

// kept is keptSince for the block so far; multiply every duration measured
// inside the block by it.
func (b block) kept() float64 { return readCPUTimes().keptSince(b.cpu) }

// seconds is the block's length so far with the host's share taken out.
func (b block) seconds() float64 {
	wall := time.Since(b.start).Seconds()
	return wall * b.kept()
}

// rssMB reads a field of /proc/<pid>/status given in kB ("VmRSS", the
// resident set now, or "VmHWM", its high-water mark) in MB; pid may be
// "self".
func rssMB(pid, field string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}

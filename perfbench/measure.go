package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pgb/internal/core"
)

// envRecord identifies the host and build a run was measured on.
type envRecord struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	MasterSeed int64  `json:"master_seed"`
	Traced     bool   `json:"traced"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	LLC        string `json:"last_level_cache"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func environment(workload string, seed int64, traced bool) envRecord {
	e := envRecord{
		Workload:   workload,
		Seed:       seed,
		MasterSeed: masterSeed(seed),
		Traced:     traced,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		LLC:        lastLevelCache(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
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

// lastLevelCache reports the size of cpu0's highest-level cache.
func lastLevelCache() string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best, size := -1, "unknown"
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		if l, err := strconv.Atoi(strings.TrimSpace(string(lv))); err == nil && l > best {
			best, size = l, "L"+strconv.Itoa(l)+" "+strings.TrimSpace(string(sz))
		}
	}
	return size
}

// masterSeed derives the program-facing master seed from the workload
// seed. core.Config treats seed 0 as "default", so 0 is never returned.
func masterSeed(seed int64) int64 {
	s := core.SubSeed(seed, 0x5eed) & math.MaxInt32
	if s == 0 {
		s = 1
	}
	return s
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the CPU time the process has used so far, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is the cumulative heap bytes allocated by the process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of p90/p50 that leaves at least ten
// samples beyond it, as the percentile's label and value.
func tailQuantile(xs []float64) (label string, q float64) {
	if len(xs) >= 100 {
		return "p90", quantile(xs, 0.9)
	}
	return "p50", median(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// setupRepeats is how often a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupRepeats = 3

// timeSetup runs prepare setupRepeats times and returns the median wall
// time in seconds. prepare receives the repetition index; the last
// repetition's products are the ones the run keeps.
func timeSetup(prepare func(k int) error) (float64, error) {
	var secs []float64
	for k := 0; k < setupRepeats; k++ {
		start := time.Now()
		if err := prepare(k); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

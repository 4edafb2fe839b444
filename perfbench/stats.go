package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder is the set of percentiles a *_tail_ms metric may report.
var tailLadder = []float64{99.9, 99.5, 99, 98, 97.5, 95, 90, 85, 80, 75, 70, 60, 50}

// tailPercentile picks the highest ladder percentile with at least ten
// samples beyond it. It is chosen from the schedule's expected sample
// count, with two to spare for the Poisson draw, not from the realised
// count, so the reported percentile does not flip between seeds; the
// report states the realised count beyond it.
func tailPercentile(expected int) float64 {
	for _, p := range tailLadder {
		if float64(expected)*(1-p/100) >= 12 {
			return p
		}
	}
	return 50
}

// settleHeap collects garbage and returns freed memory to the OS, outside
// any timed window, so memory and GC work left by set-up do not land in
// a measurement.
func settleHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// rssSampler records the resident set size every interval until finish.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mb   []float64
}

// sampleRSS starts sampling /proc/self/statm.
func sampleRSS(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if mb, ok := rssMB(); ok {
				s.mb = append(s.mb, mb)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it, and returns the median sample.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return median(s.mb)
}

// rssMB is the current resident set size.
func rssMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

// resetPeakRSS restarts the VmHWM high-water mark (Linux clear_refs), so
// the peak excludes input generation. It reports whether it could.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's VmHWM, falling back to getrusage's maxrss.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return float64(ru.Maxrss) / 1024
	}
	return math.NaN()
}

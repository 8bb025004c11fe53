package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile by the nearest-rank method.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// tailLadder are the percentiles a tail is reported at, highest first.
var tailLadder = []float64{95, 90, 80, 75, 70, 60, 50}

// tail returns a timing's tail over all its samples and the percentile
// it is: the highest ladder percentile with at least ten samples beyond
// it.
func tail(xs []float64) (float64, float64) {
	n := float64(len(xs))
	for _, p := range tailLadder {
		if n*(100-p) >= 10*100 {
			return quantile(xs, p/100), p
		}
	}
	return quantile(xs, 0.5), 50
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, _ := strconv.ParseFloat(fields[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTime is the CPU time (user + system) the process has used so far,
// over all its threads. The kernel leaves out time a thread spends
// waiting for a CPU, including time the hypervisor steals, so on a
// shared host it moves far less than wall time does.
func cpuTime() time.Duration { return clockTime(clockProcessCPUTime) }

// Linux clock ids for clock_gettime.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// clockTime reads a CPU-time clock to the nanosecond (getrusage rounds
// a thread's time to scheduler ticks).
func clockTime(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// ledger identifies the machine and the code a result was measured on,
// so comparisons are like with like.
type ledger struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	SourceHash string  `json:"source_hash"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func ledgerFor(o runOptions) ledger {
	return ledger{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA("."),
		SourceHash: sourceHash("."),
		Seed:       o.seed,
		Seconds:    o.timed.Seconds(),
		Trace:      o.trace,
	}
}

// cpuTimes reads the machine's aggregate CPU time counters (user, nice,
// system, idle, iowait, irq, softirq, steal) from /proc/stat.
func cpuTimes() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	out := make([]int64, 8)
	for i := range out {
		out[i], _ = strconv.ParseInt(fields[i+1], 10, 64)
	}
	return out
}

// cpuShares returns the shares of CPU time stolen by the hypervisor and
// spent waiting on I/O between two cpuTimes readings.
func cpuShares(before, after []int64) (steal, iowait float64, ok bool) {
	if len(before) != 8 || len(after) != 8 {
		return 0, 0, false
	}
	var total int64
	d := make([]int64, 8)
	for i := range d {
		d[i] = after[i] - before[i]
		total += d[i]
	}
	if total <= 0 {
		return 0, 0, false
	}
	return float64(d[7]) / float64(total), float64(d[4]) / float64(total), true
}

// hostNote reports the steal and iowait shares of a timed phase: a phase
// with a large steal share ran on a contended host.
func hostNote(before, after []int64) string {
	steal, iowait, ok := cpuShares(before, after)
	if !ok {
		return "host: cpu counters unavailable"
	}
	return fmt.Sprintf("host: cpu steal %.1f%%, iowait %.1f%% during the timed phase", 100*steal, 100*iowait)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA resolves HEAD from the repository's .git directory without
// running git; a checkout without one reports "unknown" and the source
// hash identifies the code instead.
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	name, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, r, ok := strings.Cut(line, " "); ok && r == name {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceHash is an FNV-1a digest over the paths and contents of the
// module's Go sources and go.mod files.
func sourceHash(root string) string {
	h := fnv.New64a()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); !strings.HasSuffix(n, ".go") && n != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, _ = io.Copy(h, f)
		return nil
	})
	return strconv.FormatUint(h.Sum64(), 16)
}

package main

import (
	"runtime"
	"slices"
	"time"
)

// The host's CPU speed drifts with its other tenants' load: on a shared
// 2-vCPU virtual machine the same work took from 25 to 35 ms of CPU
// time within one run, and a campaign took up to 47% more CPU time
// twenty minutes later than before. So the benchmark runs a fixed reference computation, a slice,
// between the tuner's iterations, and reports CPU times scaled to a
// host on which a slice takes refNominal: a CPU time t measured while
// slices took r reads t × refNominal / r. A change to the program does
// not touch the slice, so it shows in full; a change in host speed
// moves both alike and cancels.

// refNominal is the slice's CPU time at reference speed: the unit the
// scaled CPU times are in.
const refNominal = 5 * time.Millisecond

// refEvery is the program CPU time between two slices: a slice takes
// about a tenth of the program's CPU.
const refEvery = 50 * time.Millisecond

// refNeighbours is how many slices around a sample its scale comes from.
const refNeighbours = 5

// Sizes of the slice's work: a regression tree fitted on refRows rows
// and then traversed by refQueries queries.
const (
	refRows     = 800
	refFeatures = 8
	refQueries  = 15000
	refMinLeaf  = 4
)

// refNode is one node of the slice's tree; feature < 0 marks a leaf.
type refNode struct {
	feature     int
	threshold   float64
	left, right int
	value       float64
}

// refKernel holds the slice's buffers, so that a slice allocates
// nothing and starts no garbage collection.
type refKernel struct {
	x     [refRows][refFeatures]float64
	y     [refRows]float64
	rows  [refRows]int
	nodes []refNode
	state uint64
}

var reference = &refKernel{nodes: make([]refNode, 0, 2*refRows)}

func (k *refKernel) next() float64 {
	k.state ^= k.state << 13
	k.state ^= k.state >> 7
	k.state ^= k.state << 17
	return float64(k.state>>11) / (1 << 53)
}

// run does the slice's work: the same work of the same kind as the
// tuner's own (sorting, split search, tree traversal) on the same data
// every time. It returns a checksum of the predictions.
func (k *refKernel) run() float64 {
	k.state = 0x9e3779b97f4a7c15
	for i := range k.x {
		for f := range k.x[i] {
			k.x[i][f] = k.next()
		}
		k.y[i] = k.x[i][0]*k.x[i][1] + k.x[i][2] - k.x[i][3]*k.x[i][3] + 0.1*k.next()
		k.rows[i] = i
	}
	k.nodes = k.nodes[:0]
	k.grow(k.rows[:])
	var check float64
	var q [refFeatures]float64
	for i := 0; i < refQueries; i++ {
		for f := range q {
			q[f] = k.next()
		}
		n := 0
		for k.nodes[n].feature >= 0 {
			if q[k.nodes[n].feature] < k.nodes[n].threshold {
				n = k.nodes[n].left
			} else {
				n = k.nodes[n].right
			}
		}
		check += k.nodes[n].value
	}
	return check
}

// grow fits the subtree over rows by exhaustive variance-reduction
// splits and returns its root.
func (k *refKernel) grow(rows []int) int {
	var sum float64
	for _, r := range rows {
		sum += k.y[r]
	}
	id := len(k.nodes)
	k.nodes = append(k.nodes, refNode{feature: -1, value: sum / float64(len(rows))})
	if len(rows) < 2*refMinLeaf {
		return id
	}
	bestF, bestAt, bestGain := -1, 0, 0.0
	for f := 0; f < refFeatures; f++ {
		k.sortBy(rows, f)
		var left float64
		for i := 0; i < len(rows)-1; i++ {
			left += k.y[rows[i]]
			nl, nr := i+1, len(rows)-i-1
			if nl < refMinLeaf || nr < refMinLeaf {
				continue
			}
			right := sum - left
			if g := left*left/float64(nl) + right*right/float64(nr); g > bestGain {
				bestF, bestAt, bestGain = f, i, g
			}
		}
	}
	if bestF < 0 {
		return id
	}
	k.sortBy(rows, bestF)
	thr := (k.x[rows[bestAt]][bestF] + k.x[rows[bestAt+1]][bestF]) / 2
	l := k.grow(rows[:bestAt+1])
	r := k.grow(rows[bestAt+1:])
	k.nodes[id] = refNode{feature: bestF, threshold: thr, left: l, right: r}
	return id
}

func (k *refKernel) sortBy(rows []int, f int) {
	slices.SortFunc(rows, func(a, b int) int {
		switch va, vb := k.x[a][f], k.x[b][f]; {
		case va < vb:
			return -1
		case va > vb:
			return 1
		}
		return a - b
	})
}

// refSlice runs one slice and returns its CPU time and the process CPU
// time it took. The slice's own time is its thread's CPU time, with the
// goroutine locked to the thread, so the benchmark's other goroutines
// (servers, workers, the collector) do not add to it.
func refSlice() (slice, process time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p0, t0 := cpuTime(), threadCPUTime()
	reference.run()
	return threadCPUTime() - t0, cpuTime() - p0
}

// threadCPUTime is the calling thread's CPU time.
func threadCPUTime() time.Duration { return clockTime(clockThreadCPUTime) }

// refScale is the factor that scales a CPU time measured while slices
// took the given times (ms) to reference speed: refNominal over their
// median.
func refScale(sliceMS []float64) float64 {
	m := median(sliceMS)
	if m <= 0 {
		return 1
	}
	return ms(refNominal) / m
}

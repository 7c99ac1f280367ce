package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine the benchmark runs on is shared, and its speed drifts by up
// to 2× over minutes as other tenants contend for the memory system: the
// process's CPU time grows with its wall time, so the slowdown is not time
// spent descheduled. The benchmark therefore times a fixed reference
// computation, code of its own that no program change touches, before
// each set-up and each pipeline iteration, and scales each of those times
// to a host on which the reference takes refNominal: the scaled time is
// the measured one times refNominal over the reference time just before
// it, and the reported metric is the median of the scaled times. The
// reference stresses what the drift slows: dependent random reads
// (latency), streaming copies (bandwidth) and map building (allocation and
// hashing). Pure arithmetic does not slow with the drift, so it is left
// out.

// refNominal is the reference time of the nominal host the reported
// times are scaled to; it is a unit, near the reference's time on an idle
// 2-core machine.
const refNominal = 0.1 // seconds

// refReps is how many times the reference runs back to back at each
// timing; their median is the reference time. One run varies by 10–25%.
const refReps = 3

const (
	refChaseWords = 8 << 20  // 32 MiB of uint32 for the dependent reads
	refChaseReads = 200_000  // reads per goroutine
	refCopyBytes  = 16 << 20 // per buffer; each goroutine copies between two
	refCopyRounds = 6        // round trips per goroutine
	refMapInserts = 150_000  // inserts per goroutine
	refMapKeys    = 50_000
)

// hostRef holds the reference's buffers. They are mapped outside the Go
// heap so that they neither count toward peak_heap_mib nor add to the
// collector's work.
type hostRef struct {
	chase    []uint32
	src, dst [workers][]byte
	mapped   [][]byte
	sink     [workers]uint64
}

func newHostRef() (*hostRef, error) {
	h := &hostRef{}
	buf, err := h.mmap(refChaseWords * 4)
	if err != nil {
		return nil, err
	}
	h.chase = unsafe.Slice((*uint32)(unsafe.Pointer(&buf[0])), refChaseWords)
	x := uint32(1)
	for i := range h.chase {
		x = x*1664525 + 1013904223
		h.chase[i] = x
	}
	for g := range h.src {
		if h.src[g], err = h.mmap(refCopyBytes); err != nil {
			h.close()
			return nil, err
		}
		if h.dst[g], err = h.mmap(refCopyBytes); err != nil {
			h.close()
			return nil, err
		}
		for i := range h.src[g] {
			h.src[g][i] = byte(i * (g + 3))
		}
		copy(h.dst[g], h.src[g])
	}
	h.time() // fault pages in and grow the heap now, not in the first timing
	return h, nil
}

func (h *hostRef) mmap(n int) ([]byte, error) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map reference buffer: %w", err)
	}
	h.mapped = append(h.mapped, b)
	return b, nil
}

func (h *hostRef) close() {
	for _, b := range h.mapped {
		syscall.Munmap(b)
	}
	h.mapped = nil
}

// time runs the reference once, its three parts each on one goroutine
// per worker, and returns the summed wall time in seconds.
func (h *hostRef) time() float64 {
	return h.par(h.chaseReads) + h.par(h.copyRounds) + h.par(h.buildMap)
}

func (h *hostRef) par(f func(g int)) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(g)
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

func (h *hostRef) chaseReads(g int) {
	idx, acc := uint32(g*7919), uint32(0)
	for range refChaseReads {
		v := h.chase[idx%refChaseWords]
		acc += v
		idx = v ^ acc
	}
	h.sink[g] = uint64(acc)
}

func (h *hostRef) copyRounds(g int) {
	for range refCopyRounds {
		copy(h.dst[g], h.src[g])
		copy(h.src[g], h.dst[g])
	}
	h.sink[g] = uint64(h.src[g][g])
}

func (h *hostRef) buildMap(g int) {
	m := make(map[int32][]int32)
	x := uint32(g + 1)
	for i := range refMapInserts {
		x = x*1664525 + 1013904223
		k := int32(x % refMapKeys)
		m[k] = append(m[k], int32(i))
	}
	h.sink[g] = uint64(len(m))
}

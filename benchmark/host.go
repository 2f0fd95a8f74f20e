package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark shares its host with other tenants, and on such a host
// the same computation can take twice as long a few minutes later. So
// every host time the benchmark reports as an end-to-end metric is
// scaled to a reference host speed: at every boundary between set-ups,
// repetitions or slices, while the run is otherwise idle, it times a
// fixed probe, and it multiplies each phase's times by refProbe over the
// median of the probe runs around that phase.
//
// One probe run does four things in turn, each of which tracked some
// workloads better than the others did: a chain of register-only
// xorshift steps, 15 000 accesses to a 16-way LRU cache model with
// 1 MiB of state and then to one with 4 MiB, and 3000 dependent loads
// scattered over 8 MiB. README.md gives the measurements.
const (
	probeSamples = 32 // probe runs per phase boundary
	probeSteps   = 150000
	probeSmall   = 4096 // sets of the 1 MiB model
	probeLarge   = 16384
	probeWays    = 16
	probeModel   = 15000 // accesses to each model
	probeHops    = 3000
	probeLinks   = 2 << 20 // uint32 links: 8 MiB
	// probeMB is the probe's resident memory, left out of max_rss_mb.
	probeMB = ((probeSmall+probeLarge)*probeWays*16 + probeLinks*4) >> 20
	// refProbe is the probe's median time on the reference host (a
	// 2-vCPU Xeon VM), so scaled times read as that host's seconds.
	refProbe = 1600 * time.Microsecond
)

// hostProbe holds the probe's memory. The memory is mapped outside the
// Go heap: inside it, it would raise the collector's heap goal and so
// change how the workloads collect.
type hostProbe struct {
	mem          []byte
	small, large cacheModel
	chain        []uint32
	sink         uint64
}

// cacheModel is a set-associative LRU cache of line numbers.
type cacheModel struct {
	sets         uint64
	tags, stamps []uint64
	clock        uint64
}

// newCacheModel carves an empty model with sets sets out of mem and
// returns the rest of mem.
func newCacheModel(sets uint64, mem []byte) (cacheModel, []byte) {
	n := sets * probeWays
	m := cacheModel{sets: sets, tags: words(mem, n), stamps: words(mem[n*8:], n)}
	for i := range m.tags {
		m.tags[i] = ^uint64(0) // no line: the way is empty
	}
	clear(m.stamps) // already zero, but written so it is resident
	return m, mem[2*n*8:]
}

func words(mem []byte, n uint64) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), n)
}

// newHostProbe maps the probe's memory, builds the models and links the
// chain into one random cycle, so every load waits for the one before
// it. Every page is written, so probeMB of it is resident from the
// start.
func newHostProbe() (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeMB<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the probe's memory: %w", err)
	}
	p := &hostProbe{mem: mem}
	rest := mem
	p.small, rest = newCacheModel(probeSmall, rest)
	p.large, rest = newCacheModel(probeLarge, rest)
	p.chain = unsafe.Slice((*uint32)(unsafe.Pointer(&rest[0])), probeLinks)
	perm := make([]uint32, probeLinks)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(12345)
	for i := len(perm) - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, at := range perm {
		p.chain[at] = perm[(i+1)%len(perm)]
	}
	return p, nil
}

// close unmaps the probe's memory.
func (p *hostProbe) close() error {
	return syscall.Munmap(p.mem)
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// sample times the probe probeSamples times and returns the times in
// seconds. It is called when the run is otherwise idle, between set-ups,
// repetitions or slices, and collects the garbage first, so the run's
// own work neither slows the probe nor waits for it.
func (p *hostProbe) sample() []float64 {
	runtime.GC()
	samples := make([]float64, 0, probeSamples)
	for range probeSamples {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for range probeSteps {
			x = xorshift(x)
		}
		p.small.replay()
		p.large.replay()
		link := uint32(0)
		for range probeHops {
			link = p.chain[link]
		}
		p.sink += x + uint64(link)
		samples = append(samples, time.Since(t0).Seconds())
	}
	return samples
}

// replay sends probeModel accesses through the cache: a quarter walk
// the same lines in order, and the rest fall at random over twice the
// cache's capacity.
func (m *cacheModel) replay() {
	x := uint64(88172645463325252)
	var seq uint64
	for range probeModel {
		x = xorshift(x)
		line := (x >> 8) % (m.sets * probeWays * 2)
		if x&3 == 0 {
			seq++
			line = seq
		}
		set := int(line%m.sets) * probeWays
		m.clock++
		victim := set
		hit := false
		for w := set; w < set+probeWays; w++ {
			if m.tags[w] == line {
				m.stamps[w] = m.clock
				hit = true
				break
			}
			if m.stamps[w] < m.stamps[victim] {
				victim = w
			}
		}
		if !hit {
			m.tags[victim] = line
			m.stamps[victim] = m.clock
		}
	}
}

// hostScale is the factor that turns the host times of a phase into
// reference host times, from the probe runs around that phase.
func hostScale(probe []float64) float64 {
	return refProbe.Seconds() / median(probe)
}

// peakRSS is the process's resident-set high-water mark in MiB, less
// the probe's memory, from /proc/self/status.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	_, rest, ok := bytes.Cut(data, []byte("VmHWM:"))
	if !ok {
		return 0, fmt.Errorf("/proc/self/status has no VmHWM")
	}
	line, _, _ := bytes.Cut(rest, []byte("\n"))
	kib, err := strconv.ParseFloat(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(line), []byte("kB")))), 64)
	if err != nil {
		return 0, fmt.Errorf("VmHWM: %w", err)
	}
	return kib/1024 - probeMB, nil
}

// resetPeakRSS starts a new high-water mark at the current resident
// set, so the next peakRSS covers only what runs in between.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rssWindows records the peak resident set of every window of a phase
// that has no repetitions to take peaks of.
type rssWindows struct {
	done  chan struct{}
	wg    sync.WaitGroup
	peaks []float64
	err   error
}

func startRSSWindows(window time.Duration) (*rssWindows, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	w := &rssWindows{done: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(window)
		defer t.Stop()
		for {
			select {
			case <-w.done:
				return
			case <-t.C:
			}
			peak, err := peakRSS()
			if err == nil {
				err = resetPeakRSS()
			}
			if err != nil {
				w.err = err
				return
			}
			w.peaks = append(w.peaks, peak)
		}
	}()
	return w, nil
}

// stop ends the last window and returns every window's peak.
func (w *rssWindows) stop() ([]float64, error) {
	close(w.done)
	w.wg.Wait()
	if w.err != nil {
		return nil, w.err
	}
	peak, err := peakRSS()
	return append(w.peaks, peak), err
}

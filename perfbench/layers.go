package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autoclass"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mpi"
)

// Benchmark-timed loops over each layer's public functions. Each runs for
// about its time budget at the workload's sizes.

// kernelFigures times the blocked kernels of every (class, term) of cls
// over cols in KernelBlockRows blocks: Refresh plus BlockLogProb, then
// Refresh plus BlockAccumulateStats. bytesPerRow is computed, not
// measured: the column values each pass reads, plus the log-probability
// vector read and written and the weight column read, over all classes.
func kernelFigures(cls *autoclass.Classification, cols *dataset.Columns, budget time.Duration) (lpNs, stNs, bytesPerRow float64) {
	n := cols.N()
	var kerns []model.Kernel
	var stats [][]float64
	for _, c := range cls.Classes {
		for _, t := range c.Terms {
			kerns = append(kerns, t.Kernel())
			stats = append(stats, make([]float64, t.StatsSize()))
			bytesPerRow += 2 * 8 * float64(len(t.Attrs()))
		}
	}
	bytesPerRow += float64(cls.J()) * (16 + 8)
	out := make([]float64, autoclass.KernelBlockRows)
	wts := make([]float64, autoclass.KernelBlockRows)
	for i := range wts {
		wts[i] = 0.5
	}
	perRowClass := func(pass func()) float64 {
		reps := 0
		start := time.Now()
		for reps == 0 || time.Since(start) < budget/2 {
			pass()
			reps++
		}
		return float64(time.Since(start).Nanoseconds()) / (float64(reps) * float64(n) * float64(cls.J()))
	}
	lpNs = perRowClass(func() {
		for _, k := range kerns {
			k.Refresh()
			for lo := 0; lo < n; lo += autoclass.KernelBlockRows {
				hi := min(lo+autoclass.KernelBlockRows, n)
				clear(out)
				k.BlockLogProb(cols, lo, hi, out[:hi-lo])
			}
		}
	})
	stNs = perRowClass(func() {
		for i, k := range kerns {
			k.Refresh()
			clear(stats[i])
			for lo := 0; lo < n; lo += autoclass.KernelBlockRows {
				hi := min(lo+autoclass.KernelBlockRows, n)
				k.BlockAccumulateStats(cols, wts[:hi-lo], lo, hi, stats[i])
			}
		}
	})
	return lpNs, stNs, bytesPerRow
}

// packedStatsSize is the length of one cycle's statistics when every
// class's terms are exchanged in a single buffer: the class weight plus
// each term's sufficient statistics.
func packedStatsSize(cls *autoclass.Classification) int {
	n := 0
	for _, c := range cls.Classes {
		n++
		for _, t := range c.Terms {
			n += t.StatsSize()
		}
	}
	return n
}

// allreduceFigures times Comm.Allreduce of size values across comms (one
// goroutine per rank, all running the same iteration count) and counts the
// process's heap allocations per call over all ranks.
func allreduceFigures(comms []*mpi.Comm, size int, budget time.Duration) (us, allocs float64, err error) {
	run := func(iters int) (time.Duration, error) {
		var wg sync.WaitGroup
		errs := make([]error, len(comms))
		start := time.Now()
		for r, c := range comms {
			wg.Add(1)
			go func(r int, c *mpi.Comm) {
				defer wg.Done()
				buf := make([]float64, size)
				for i := 0; i < iters && errs[r] == nil; i++ {
					for k := range buf {
						buf[k] = float64(k + r)
					}
					errs[r] = c.Allreduce(mpi.Sum, buf)
				}
			}(r, c)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return 0, e
			}
		}
		return time.Since(start), nil
	}
	const warm = 50
	d, err := run(warm)
	if err != nil {
		return 0, 0, err
	}
	iters := int(float64(warm) * budget.Seconds() / d.Seconds())
	iters = max(100, min(iters, 200_000))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d, err = run(iters)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return 0, 0, err
	}
	return float64(d.Microseconds()) / float64(iters), float64(m1.Mallocs-m0.Mallocs) / float64(iters), nil
}

// chunkScanMBps opens the chunk file under the given memory budget with
// the bounded cache and times ChunkCursor passes over every block,
// touching each value, in MB of column data per second.
func chunkScanMBps(path string, budget int64, d time.Duration) (float64, error) {
	cds, err := dataset.OpenChunked(path, dataset.ChunkOptions{Mode: dataset.ChunkCached, MemoryBudget: budget})
	if err != nil {
		return 0, err
	}
	defer cds.Close()
	var cur dataset.ChunkCursor
	n, na := cds.N(), cds.NumAttrs()
	acc := 0.0
	passes := 0
	start := time.Now()
	for passes == 0 || time.Since(start) < d {
		cur.Reset(dataset.ChunkSrc{Store: cds.ChunkStore()})
		for lo := 0; lo < n; lo += dataset.ChunkAlign {
			cols, clo, chi := cur.Block(lo, min(lo+dataset.ChunkAlign, n))
			for k := 0; k < na; k++ {
				for _, v := range cols.Col(k)[clo:chi] {
					acc += v
				}
			}
		}
		cur.Close()
		passes++
	}
	el := time.Since(start).Seconds()
	if acc != acc {
		return 0, fmt.Errorf("chunk scan read NaN")
	}
	return float64(passes) * float64(n*na*8) / 1e6 / el, nil
}

// writeChunkFile writes ds as a chunk file and returns its size in bytes.
func writeChunkFile(path string, ds *dataset.Dataset, chunkRows int) (int64, error) {
	if err := dataset.WriteChunked(path, ds, chunkRows); err != nil {
		return 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// scoreFigures scores each body with one warm Predictor the way the
// serving tier does (blocked kernels, per-row log-evidence), round robin
// for about d, and returns every call's latency in ms. Each call's LogLik
// must equal want[body] bit for bit; mismatches are counted as failures.
func scoreFigures(cls *autoclass.Classification, bodies []*dataset.Dataset, want []float64, d time.Duration, minCalls int) (lat []float64, failed int, err error) {
	pr, err := autoclass.NewPredictor(cls, autoclass.PredictConfig{RowLogLik: true})
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	for i := 0; i < minCalls || time.Since(start) < d; i++ {
		b := i % len(bodies)
		t0 := time.Now()
		p, err := pr.Predict(bodies[b])
		el := time.Since(t0)
		if err != nil {
			return nil, 0, err
		}
		if p.LogLik != want[b] {
			failed++
		}
		lat = append(lat, ms(el))
	}
	return lat, failed, nil
}

// countingTransport wraps one rank's endpoint and counts what crosses it:
// messages and bytes sent, time spent in Send, and time blocked in Recv
// waiting for a peer.
type countingTransport struct {
	mpi.Transport
	messages, bytes atomic.Int64
	sendNs, recvNs  atomic.Int64
}

func (c *countingTransport) Send(dst, tag int, data []float64) error {
	t0 := time.Now()
	err := c.Transport.Send(dst, tag, data)
	c.sendNs.Add(int64(time.Since(t0)))
	c.messages.Add(1)
	c.bytes.Add(int64(8 * len(data)))
	return err
}

func (c *countingTransport) Recv(src, tag int) ([]float64, error) {
	t0 := time.Now()
	d, err := c.Transport.Recv(src, tag)
	c.recvNs.Add(int64(time.Since(t0)))
	return d, err
}

func (c *countingTransport) reset() {
	c.messages.Store(0)
	c.bytes.Store(0)
	c.sendNs.Store(0)
	c.recvNs.Store(0)
}

// collectiveCounter is a CollectiveObserver counting collectives.
type collectiveCounter struct{ n atomic.Int64 }

func (c *collectiveCounter) ObserveCollective(string, int, int) { c.n.Add(1) }

package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"

	"repro/internal/autoclass"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/pautoclass"
)

const (
	spmdRanks     = 2
	spmdChunkRows = 2048
)

// spmdSearch is the spmd-ooc workload: the same BIG_LOOP as P-AutoClass on
// spmdRanks SPMD ranks over loopback TCP (Full strategy, per-term
// exchanges), reading the training rows from a chunk file through the
// bounded cache with a budget of a tenth of the file. Each rank's endpoint
// is wrapped in a countingTransport owned by the benchmark.
type spmdSearch struct {
	in    *inputs
	path  string
	size  int64
	cds   *dataset.Dataset
	store interface{ Stats() dataset.CacheStats }
	spec  model.Spec

	release func()
	wraps   []*countingTransport
	comms   []*mpi.Comm
	colls   *collectiveCounter

	// traced holds the transport and chunk figures of the last traced
	// search.
	traced map[string]float64
	// recvWait is each rank's time blocked in Recv in that search.
	recvWait []float64
}

func runSPMD(o *options) (*outcomeSet, error) {
	k := 0
	return runBatch(o, func(in *inputs) (batchJob, error) {
		k++
		return newSPMDSearch(in, filepath.Join(o.workdir, fmt.Sprintf("train-%d.chunks", k)))
	})
}

func newSPMDSearch(in *inputs, path string) (*spmdSearch, error) {
	size, err := writeChunkFile(path, in.train, spmdChunkRows)
	if err != nil {
		return nil, err
	}
	cds, err := dataset.OpenChunked(path, dataset.ChunkOptions{Mode: dataset.ChunkCached, MemoryBudget: size / 10})
	if err != nil {
		return nil, err
	}
	store, ok := cds.ChunkStore().(interface{ Stats() dataset.CacheStats })
	if !ok {
		cds.Close()
		return nil, errors.New("chunk store has no cache statistics")
	}
	g, err := mpi.NewTCPGroup(spmdRanks)
	if err != nil {
		cds.Close()
		return nil, err
	}
	m := &spmdSearch{in: in, path: path, size: size, cds: cds, store: store,
		spec: model.DefaultSpec(cds), colls: &collectiveCounter{},
		release: func() { g.Close() }}
	for r := 0; r < spmdRanks; r++ {
		ep, err := g.Endpoint(r)
		if err != nil {
			m.close()
			return nil, err
		}
		w := &countingTransport{Transport: ep}
		m.wraps = append(m.wraps, w)
		m.comms = append(m.comms, mpi.NewComm(w))
	}
	m.comms[0].SetObserver(m.colls)
	return m, nil
}

// rankSearch runs pautoclass.Search on every communicator concurrently and
// returns rank 0's result, after checking every rank agrees with it.
func rankSearch(comms []*mpi.Comm, ds *dataset.Dataset, spec model.Spec, p *searchProbe) (*autoclass.SearchResult, error) {
	cfg := searchConfig()
	out := make([]*autoclass.SearchResult, len(comms))
	errs := make([]error, len(comms))
	var wg sync.WaitGroup
	for r, c := range comms {
		opts := pautoclass.DefaultOptions()
		opts.EM = cfg.EM
		if p != nil {
			opts.Profile = p.profiles[r]
			if r == 0 {
				opts.SearchObs = p
			}
		}
		wg.Add(1)
		go func(r int, c *mpi.Comm, opts pautoclass.Options) {
			defer wg.Done()
			out[r], errs[r] = pautoclass.Search(c, ds, spec, cfg, opts)
		}(r, c, opts)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for r := 1; r < len(out); r++ {
		if err := sameResult(out[r], out[0]); err != nil {
			return nil, fmt.Errorf("rank %d disagrees with rank 0: %w", r, err)
		}
	}
	return out[0], nil
}

func (m *spmdSearch) search(p *searchProbe) (*autoclass.SearchResult, error) {
	for _, w := range m.wraps {
		w.reset()
	}
	m.colls.n.Store(0)
	before := m.store.Stats()
	res, err := rankSearch(m.comms, m.cds, m.spec, p)
	if err != nil || p == nil {
		return res, err
	}
	after := m.store.Stats()
	v := map[string]float64{"mpi.collectives": float64(m.colls.n.Load())}
	m.recvWait = m.recvWait[:0]
	for _, w := range m.wraps {
		v["mpi.messages"] += float64(w.messages.Load())
		v["mpi.bytes_sent"] += float64(w.bytes.Load())
		v["mpi.send_s"] += float64(w.sendNs.Load()) / 1e9
		wait := float64(w.recvNs.Load()) / 1e9
		v["mpi.recv_wait_s"] += wait
		m.recvWait = append(m.recvWait, wait)
	}
	v["chunk.loads"] = float64(after.Loads - before.Loads)
	v["chunk.hits"] = float64(after.Hits - before.Hits)
	v["chunk.evictions"] = float64(after.Evictions - before.Evictions)
	v["chunk.hit_ratio"] = v["chunk.hits"] / (v["chunk.hits"] + v["chunk.loads"])
	v["chunk.resident_high_water"] = float64(after.HighWater)
	m.traced = v
	return res, nil
}

func (m *spmdSearch) newProbe(tr *tracer) *searchProbe {
	return newSearchProbe(tr, m.in.train.N(), 1, spmdRanks)
}

// layerFigures reports the transport and chunk-store figures of the last
// traced search, and the rank skew: the slowest rank's busy time (EM
// phases less time blocked waiting for a peer) over the fastest's.
func (m *spmdSearch) layerFigures(v map[string]float64, p *searchProbe) error {
	if m.traced == nil {
		return errors.New("no traced search")
	}
	for k, x := range m.traced {
		v[k] = x
	}
	lo, hi := math.Inf(1), 0.0
	for r := range p.profiles {
		w, pa, a := p.emSeconds(r)
		busy := w + pa + a - m.recvWait[r]
		lo, hi = math.Min(lo, busy), math.Max(hi, busy)
	}
	v["spmd.rank_skew"] = hi / lo
	return nil
}

func (m *spmdSearch) allreduceComms() ([]*mpi.Comm, func(), error) {
	return m.comms, func() {}, nil
}

func (m *spmdSearch) chunkFile() (string, int64, error) { return m.path, m.size, nil }

// verify checks the TCP, out-of-core result against the same search on
// in-process ranks over an in-memory chunked copy of the training rows
// (the same aligned partition), bit for bit.
func (m *spmdSearch) verify(res *autoclass.SearchResult) error {
	mem, err := dataset.ChunkedCopy(m.in.train, spmdChunkRows)
	if err != nil {
		return err
	}
	g, err := mpi.NewMemGroup(spmdRanks)
	if err != nil {
		return err
	}
	comms := make([]*mpi.Comm, spmdRanks)
	for r := range comms {
		ep, err := g.Endpoint(r)
		if err != nil {
			return err
		}
		comms[r] = mpi.NewComm(ep)
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	ref, err := rankSearch(comms, mem, m.spec, nil)
	if err != nil {
		return err
	}
	if err := sameResult(res, ref); err != nil {
		return fmt.Errorf("TCP out-of-core search differs from the in-memory reference: %w", err)
	}
	return nil
}

func (m *spmdSearch) close() error {
	m.release()
	return m.cds.Close()
}

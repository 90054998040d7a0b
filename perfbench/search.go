package main

import (
	"path/filepath"

	"repro"
	"repro/internal/autoclass"
	"repro/internal/mpi"
)

// searchWorkers is the search workload's variant worker count, one per
// core of the 2-core host the sizes were chosen on.
const searchWorkers = 2

// memSearch is the search workload: the in-memory BIG_LOOP through the
// facade, variants on searchWorkers workers. It has no transport, chunk
// store or HTTP in its path.
type memSearch struct {
	in      *inputs
	workdir string
}

func runSearch(o *options) (*outcomeSet, error) {
	return runBatch(o, func(in *inputs) (batchJob, error) {
		return &memSearch{in: in, workdir: o.workdir}, nil
	})
}

func (m *memSearch) search(p *searchProbe) (*autoclass.SearchResult, error) {
	opts := []repro.Option{repro.WithSearchConfig(searchConfig()), repro.WithSearchParallelism(searchWorkers)}
	if p != nil {
		opts = append(opts, repro.WithSearchObserver(p), repro.WithProfile(p.profiles[0]))
	}
	res, err := repro.Run(m.in.train, opts...)
	if err != nil {
		return nil, err
	}
	return res.Search, nil
}

func (m *memSearch) newProbe(tr *tracer) *searchProbe {
	return newSearchProbe(tr, m.in.train.N(), searchWorkers, 1)
}

// layerFigures: the in-memory search loads no transport or chunk store.
func (m *memSearch) layerFigures(map[string]float64, *searchProbe) error { return nil }

func (m *memSearch) allreduceComms() ([]*mpi.Comm, func(), error) { return tcpComms(2) }

func (m *memSearch) chunkFile() (string, int64, error) {
	path := filepath.Join(m.workdir, "train.chunks")
	size, err := writeChunkFile(path, m.in.train, spmdChunkRows)
	return path, size, err
}

func (m *memSearch) verify(*autoclass.SearchResult) error { return nil }
func (m *memSearch) close() error                         { return nil }

// tcpComms connects a loopback TCP group of p ranks.
func tcpComms(p int) ([]*mpi.Comm, func(), error) {
	g, err := mpi.NewTCPGroup(p)
	if err != nil {
		return nil, nil, err
	}
	comms := make([]*mpi.Comm, p)
	for r := range comms {
		ep, err := g.Endpoint(r)
		if err != nil {
			g.Close()
			return nil, nil, err
		}
		comms[r] = mpi.NewComm(ep)
	}
	return comms, func() { g.Close() }, nil
}

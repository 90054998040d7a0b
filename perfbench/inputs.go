package main

import (
	"fmt"

	"repro/internal/autoclass"
	"repro/internal/datagen"
	"repro/internal/dataset"
)

// Workload sizes shared by every workload.
const (
	totalRows = 100_000 // paper mixture, split 90k train / 10k held out
	trainFrac = 0.9
	bodyRows  = 128 // rows per predict request
)

// inputs are everything the benchmark generates from its seed. The
// program under test only ever sees these rows, never the seed.
type inputs struct {
	train, heldout *dataset.Dataset
	// heldoutBodies cut the held-out rows into bodyRows-row requests (the
	// last one shorter), in order.
	heldoutBodies []*dataset.Dataset
}

func makeInputs(seed uint64) (*inputs, error) {
	all, err := datagen.Paper(totalRows, seed)
	if err != nil {
		return nil, err
	}
	train, test, err := dataset.SplitShuffled(all, trainFrac, seed^0x5eed)
	if err != nil {
		return nil, err
	}
	bodies, err := cut(test, bodyRows)
	if err != nil {
		return nil, err
	}
	return &inputs{train: train, heldout: test, heldoutBodies: bodies}, nil
}

// cut splits ds into consecutive datasets of at most rows rows.
func cut(ds *dataset.Dataset, rows int) ([]*dataset.Dataset, error) {
	var out []*dataset.Dataset
	buf := make([]float64, ds.NumAttrs())
	for lo := 0; lo < ds.N(); lo += rows {
		b, err := dataset.New(fmt.Sprintf("%s-%d", ds.Name, lo), ds.Attrs())
		if err != nil {
			return nil, err
		}
		for i := lo; i < lo+rows && i < ds.N(); i++ {
			if err := b.AppendRow(ds.RowTo(buf, i)); err != nil {
				return nil, err
			}
		}
		out = append(out, b)
	}
	return out, nil
}

// searchConfig is the BIG_LOOP both batch workloads run: start_j_list
// {2,4,8,16,24}, one try each, 30 cycles, blocked kernels. The
// convergence test is off (RelDelta 0), so every try runs all 30 cycles
// and the work of a search does not depend on how fast a given input
// converges. The search seed is fixed; only the data changes with the
// workload seed.
func searchConfig() autoclass.SearchConfig {
	cfg := autoclass.DefaultSearchConfig()
	cfg.StartJList = []int{2, 4, 8, 16, 24}
	cfg.Tries = 1
	cfg.EM.MaxCycles = 30
	cfg.EM.RelDelta = 0
	cfg.EM.Kernels = autoclass.Blocked
	return cfg
}

// heldoutNLL is the mean negative log-likelihood of the held-out rows
// under cls, in nats per row.
func heldoutNLL(cls *autoclass.Classification, heldout *dataset.Dataset) (float64, error) {
	p, err := autoclass.Predict(cls, heldout, autoclass.PredictConfig{})
	if err != nil {
		return 0, err
	}
	return -p.LogLik / float64(heldout.N()), nil
}

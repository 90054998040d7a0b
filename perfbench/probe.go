package main

import (
	"sync"
	"time"

	"repro/internal/autoclass"
	"repro/internal/trace"
)

// searchProbe is the traced search's SearchObserver: it timestamps every
// try's claim and cycles (the variant scheduler's layer), records a span
// per try and per cycle, and carries the engine phase Profile.
type searchProbe struct {
	tr      *tracer
	rows    int // dataset rows, for the row × class × cycle count
	workers int
	root    int // the search span
	// profiles hold each rank's engine phase times (one for an in-memory
	// search, whose variant workers share it).
	profiles []*trace.Profile

	mu    sync.Mutex
	tries map[int]*tryTrace
	// cycles and rowClassCycles count every EM cycle of the search.
	cycles         int
	rowClassCycles float64
}

type tryTrace struct {
	span      int
	claimed   time.Time
	lastCycle time.Time
}

func newSearchProbe(tr *tracer, rows, workers, ranks int) *searchProbe {
	p := &searchProbe{tr: tr, rows: rows, workers: workers, root: -1,
		tries: make(map[int]*tryTrace)}
	for r := 0; r < ranks; r++ {
		p.profiles = append(p.profiles, trace.New())
	}
	return p
}

func (p *searchProbe) ObserveTry(ev autoclass.TryEvent) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.tries[ev.Index]
	switch ev.Kind {
	case autoclass.TryClaimed:
		p.tries[ev.Index] = &tryTrace{claimed: now, lastCycle: now,
			span: p.tr.open("try", int64(ev.Index), p.root, now)}
	case autoclass.TryCycle:
		if t == nil {
			return
		}
		p.tr.add("em.cycle", int64(ev.Index), t.span, t.lastCycle, now)
		t.lastCycle = now
		p.cycles++
		p.rowClassCycles += float64(p.rows) * float64(ev.J)
	default: // commit verdicts arrive in schedule order
		if t != nil {
			p.tr.close(t.span, now)
		}
	}
}

// schedStats folds the tries into the scheduler layer's figures. A try is
// busy from its claim to its last cycle; later waiting for its turn to
// commit is not work.
func (p *searchProbe) schedStats(wall float64) (tries int, busy, longest, idleFrac float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, t := range p.tries {
		d := t.lastCycle.Sub(t.claimed).Seconds()
		busy += d
		if d > longest {
			longest = d
		}
	}
	return len(p.tries), busy, longest, 1 - busy/(float64(p.workers)*wall)
}

// emSeconds returns one rank's engine per-phase wall time.
func (p *searchProbe) emSeconds(rank int) (wts, params, approx float64) {
	pr := p.profiles[rank]
	return pr.Get(autoclass.PhaseWts).Seconds,
		pr.Get(autoclass.PhaseParams).Seconds,
		pr.Get(autoclass.PhaseApprox).Seconds
}

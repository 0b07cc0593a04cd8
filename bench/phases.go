package main

import (
	"sync"
	"time"

	"s3crm"
)

// stamp is one solver progress event with the time the benchmark saw it.
type stamp struct {
	at time.Time
	ev s3crm.Event
}

// stamps collects a call's progress events; its sink is safe for
// concurrent use.
type stamps struct {
	mu  sync.Mutex
	evs []stamp
}

func (s *stamps) sink(e s3crm.Event) {
	at := time.Now()
	s.mu.Lock()
	s.evs = append(s.evs, stamp{at, e})
	s.mu.Unlock()
}

func (s *stamps) all() []stamp {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]stamp(nil), s.evs...)
}

// last returns the last event of the phase and whether there was one.
func (s *stamps) last(phase string) (s3crm.Event, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.evs) - 1; i >= 0; i-- {
		if s.evs[i].ev.Phase == phase {
			return s.evs[i].ev, true
		}
	}
	return s3crm.Event{}, false
}

// phaseCut is the stretch of a solve call attributed to one phase.
type phaseCut struct {
	name     string
	from, to time.Time
}

// finalPhase names the stretch from the last progress event to the call's
// return: the forward measurement of the chosen deployment.
const finalPhase = "final"

// phaseCuts splits the solve call [start, end] by its progress stamps. Runs
// of consecutive events with the same phase form one segment. A segment runs
// from its first event to the next segment's first event, the first segment
// from start (a phase emits its first event after doing work, so the work
// before it belongs to it) and the last segment to its own last event; the
// final phase runs from the last event to end. A phase that recurs after
// another yields one cut per run. Without events the whole call is final.
func phaseCuts(start, end time.Time, evs []stamp) []phaseCut {
	if len(evs) == 0 {
		return []phaseCut{{finalPhase, start, end}}
	}
	var cuts []phaseCut
	from := start
	for i := 0; i < len(evs); {
		j := i
		for j+1 < len(evs) && evs[j+1].ev.Phase == evs[i].ev.Phase {
			j++
		}
		to := evs[j].at
		if j+1 < len(evs) {
			to = evs[j+1].at
		}
		cuts = append(cuts, phaseCut{evs[i].ev.Phase, from, to})
		from = to
		i = j + 1
	}
	return append(cuts, phaseCut{finalPhase, evs[len(evs)-1].at, end})
}

// phaseTotals sums the cuts per phase name, in ms.
func phaseTotals(cuts []phaseCut) map[string]float64 {
	out := make(map[string]float64)
	for _, c := range cuts {
		out[c.name] += ms(c.to.Sub(c.from))
	}
	return out
}

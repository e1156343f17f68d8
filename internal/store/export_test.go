package store

import (
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
)

// ObserveReads makes every ReadBlock and FetchBlock of s's engine call
// f with the cycle the line issued at and the cycle it completed.
func ObserveReads(s *Store, f func(issue, done int64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eng = observedEngine{s.eng, f}
}

type observedEngine struct {
	engine.Engine
	f func(issue, done int64)
}

func (o observedEngine) ReadBlock(now int64, a mem.Addr) (mem.Line, int64) {
	l, done := o.Engine.ReadBlock(now, a)
	o.f(now, done)
	return l, done
}

func (o observedEngine) FetchBlock(now int64, a mem.Addr, f *engine.Fetched) int64 {
	done := o.Engine.FetchBlock(now, a, f)
	o.f(now, done)
	return done
}

package kv

import "errors"

// ErrSnapshotReleased reports a read on a released snapshot.
var ErrSnapshotReleased = errors.New("kv: snapshot released")

// Snapshot is a point-in-time read view: the keymap as of some frame
// sequence number. The log is append-only, so a snapshot is a pure
// index copy; what keeps the copy readable across passes is the ring
// position it pins — the tail when it was taken, behind every ref it
// holds. The head never writes a lap past that position, so passes
// run on while the snapshot keeps serving its view; only the space it
// pins stays unused until the snapshot is Released. (The facade's COW
// NVM snapshot serves crash images; this one serves consistent reads.)
type Snapshot struct {
	db       *DB
	idx      map[string]valRef
	seq      uint64
	pin      uint64
	released bool
}

// Snapshot captures the current keymap and pins the tail against the
// head until Release.
func (db *DB) Snapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	idx := make(map[string]valRef, len(db.idx))
	for k, v := range db.idx {
		idx[k] = v
	}
	db.pins[db.tail]++
	return &Snapshot{db: db, idx: idx, seq: db.seq, pin: db.tail}
}

// Seq is the frame sequence number the snapshot froze at.
func (s *Snapshot) Seq() uint64 { return s.seq }

// Len is the number of live keys in the view.
func (s *Snapshot) Len() int { return len(s.idx) }

// Get returns the value key had when the snapshot was taken.
func (s *Snapshot) Get(key []byte) ([]byte, bool, error) {
	s.db.rmu.RLock()
	defer s.db.rmu.RUnlock()
	s.db.mu.Lock()
	released := s.released
	s.db.mu.Unlock()
	if released {
		return nil, false, ErrSnapshotReleased
	}
	ref, ok := s.idx[string(key)]
	if !ok {
		return nil, false, nil
	}
	v, err := s.db.readBytes(ref)
	return v, ok, err
}

// Release drops the snapshot's pin. Idempotent; reads after Release
// fail with ErrSnapshotReleased. It waits out reads in flight (rmu), so
// none is still reading the space the head may then overwrite.
func (s *Snapshot) Release() {
	s.db.rmu.Lock()
	defer s.db.rmu.Unlock()
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	if !s.released {
		s.released = true
		if s.db.pins[s.pin]--; s.db.pins[s.pin] == 0 {
			delete(s.db.pins, s.pin)
		}
	}
}

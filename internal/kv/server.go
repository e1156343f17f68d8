package kv

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"ccnvm/internal/engine"
	"ccnvm/internal/store"
)

// Server serves one DB over a listener. Termination ops (crash, quit)
// capture the crash image and hand it to OnShutdown exactly once; the
// daemon persists it and exits, the tests assert on it.
type Server struct {
	db *DB

	// OnShutdown receives the crash image after a crash (clean=false)
	// or quit (clean=true) request has been acknowledged. Called once,
	// from the requesting connection's goroutine, after the listener is
	// closed. Nil is allowed.
	OnShutdown func(img *engine.CrashImage, clean bool)

	mu       sync.Mutex
	ln       net.Listener
	stopping bool

	stopOnce sync.Once
	wg       sync.WaitGroup

	// Requests decoded by the one-pass path and by json.Unmarshal.
	canonical, fallback atomic.Uint64
}

// NewServer wraps db.
func NewServer(db *DB) *Server {
	return &Server{db: db}
}

// Serve accepts connections on ln until Close (or a termination op)
// shuts it down; it returns nil on orderly shutdown. Each connection
// is served by its own goroutine; Serve waits for them to drain.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	stopping := s.stopping
	s.mu.Unlock()
	if stopping {
		ln.Close()
		return nil
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.wg.Wait()
			s.mu.Lock()
			stopping := s.stopping
			s.mu.Unlock()
			if stopping || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Close stops accepting and unblocks Serve. In-flight connections
// finish their current request.
func (s *Server) Close() {
	s.stopOnce.Do(func() {
		s.mu.Lock()
		s.stopping = true
		ln := s.ln
		s.mu.Unlock()
		if ln != nil {
			ln.Close()
		}
	})
}

// maxConnSnaps caps the snapshots one connection may hold open: each
// is a copy of the whole keymap and pins an arena half against reclaim.
const maxConnSnaps = 16

// connSnaps is the snapshots one connection took. They are its alone:
// ids count per connection, and whatever is still open when the
// connection ends is released with it, so a client that goes away
// cannot pin an arena half (and with it every later compaction pass).
type connSnaps struct {
	open map[uint64]*Snapshot
	next uint64
}

func (c *connSnaps) releaseAll() {
	for _, snap := range c.open {
		snap.Release()
	}
}

// serveConn owns the connection's memory: one Request whose Ops array
// is decoded into again and again, and one output buffer written with
// one Write per response. Both grow to the largest line seen, which the
// scanner's 4 MiB cap bounds.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	var snaps connSnaps
	defer snaps.releaseAll()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var req Request
	var out []byte
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var resp Response
		var terminal func()
		canonical, err := decodeRequest(line, &req)
		if canonical {
			s.canonical.Add(1)
		} else {
			s.fallback.Add(1)
		}
		if err != nil {
			resp = Response{Err: "bad request: " + err.Error()}
		} else {
			resp, terminal = s.handle(&req, &snaps)
		}
		if out, err = appendResponse(out[:0], &resp); err == nil {
			_, err = conn.Write(out)
		}
		// An accepted crash or quit runs even if its answer was not
		// delivered.
		if terminal != nil {
			terminal()
			return
		}
		if err != nil {
			return
		}
	}
	// A line past the cap cannot be skipped — its end is unknown — so the
	// connection ends here, with an answer rather than a bare reset.
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		if out, err := appendResponse(out[:0], &Response{Err: "request too large", Code: CodeTooLarge}); err == nil {
			conn.Write(out)
		}
	}
}

// handle executes one request of the connection that owns snaps. A
// non-nil terminal closure means the connection must send the response
// and then run it (crash/quit).
func (s *Server) handle(req *Request, snaps *connSnaps) (Response, func()) {
	switch req.Op {
	case "ping":
		return Response{OK: true}, nil
	case "get":
		v, found, err := s.db.Get([]byte(req.Key))
		if err != nil {
			return errResp(err), nil
		}
		return Response{OK: true, Found: found, Val: string(v)}, nil
	case "put":
		if err := s.db.Put([]byte(req.Key), []byte(req.Val)); err != nil {
			return errResp(err), nil
		}
		return Response{OK: true}, nil
	case "del":
		if err := s.db.Delete([]byte(req.Key)); err != nil {
			return errResp(err), nil
		}
		return Response{OK: true}, nil
	case "batch":
		ops := make([]Op, 0, len(req.Ops))
		for _, ro := range req.Ops {
			switch ro.Op {
			case "put":
				ops = append(ops, Op{Kind: OpPut, Key: []byte(ro.Key), Val: []byte(ro.Val)})
			case "del":
				ops = append(ops, Op{Kind: OpDelete, Key: []byte(ro.Key)})
			default:
				return Response{Err: fmt.Sprintf("bad batch op %q", ro.Op)}, nil
			}
		}
		if err := s.db.Batch(ops); err != nil {
			return errResp(err), nil
		}
		return Response{OK: true}, nil
	case "snap":
		if len(snaps.open) >= maxConnSnaps {
			return Response{Err: fmt.Sprintf("too many open snapshots on this connection (max %d)", maxConnSnaps)}, nil
		}
		snap := s.db.Snapshot()
		if snaps.open == nil {
			snaps.open = make(map[uint64]*Snapshot)
		}
		snaps.next++
		snaps.open[snaps.next] = snap
		return Response{OK: true, Snap: snaps.next, Seq: snap.Seq()}, nil
	case "snapget":
		snap := snaps.open[req.Snap]
		if snap == nil {
			return Response{Err: fmt.Sprintf("no snapshot %d", req.Snap)}, nil
		}
		v, found, err := snap.Get([]byte(req.Key))
		if err != nil {
			return errResp(err), nil
		}
		return Response{OK: true, Found: found, Val: string(v)}, nil
	case "snaprel":
		if snap := snaps.open[req.Snap]; snap != nil {
			delete(snaps.open, req.Snap)
			snap.Release()
		}
		return Response{OK: true}, nil
	case "flush":
		if err := s.db.Flush(); err != nil {
			return errResp(err), nil
		}
		return Response{OK: true}, nil
	case "stats":
		return s.statsResp(), nil
	case "compact":
		// Admin verb: run (or join) one compaction pass.
		if err := s.db.Compact(); err != nil {
			return errResp(err), nil
		}
		return s.statsResp(), nil
	case "crash":
		// Simulated power failure: on-chip state is lost, the open
		// epoch's counters and tree included; the image is what the
		// media held. Every acknowledged batch is in it, and recovery
		// re-derives the counters the open epoch left behind.
		return Response{OK: true}, func() {
			s.Close()
			img := s.db.Crash()
			if s.OnShutdown != nil {
				s.OnShutdown(img, false)
			}
		}
	case "quit":
		// Clean shutdown: settle the final epoch, then checkpoint. A
		// read-only namespace cannot flush, but it has nothing unacked
		// to lose either — quit must still succeed (exit 0) so a
		// degraded daemon can be retired gracefully.
		if err := s.db.Flush(); err != nil && !errors.Is(err, store.ErrReadOnly) {
			return errResp(err), nil
		}
		return Response{OK: true}, func() {
			s.Close()
			img := s.db.Crash()
			if s.OnShutdown != nil {
				s.OnShutdown(img, true)
			}
		}
	default:
		return Response{Err: fmt.Sprintf("unknown op %q", req.Op)}, nil
	}
}

// statsResp answers stats and compact: the namespace's counters and the
// server's own.
func (s *Server) statsResp() Response {
	st := s.db.Stats()
	wire := WireStats{Canonical: s.canonical.Load(), Fallback: s.fallback.Load()}
	return Response{OK: true, Seq: st.Seq, Stats: &st, Wire: &wire}
}

// errResp types known refusals so clients can react without parsing
// error strings.
func errResp(err error) Response {
	resp := Response{Err: err.Error()}
	switch {
	case errors.Is(err, store.ErrReadOnly):
		resp.Code = CodeReadOnly
	case errors.Is(err, ErrLogFull):
		resp.Code = CodeFull
	case errors.Is(err, ErrDBClosed):
		resp.Code = CodeClosed
	}
	return resp
}

package kv

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"

	"ccnvm/internal/engine"
	"ccnvm/internal/store"
)

// The wire protocol is JSON lines over TCP: one request object per
// line, one response object per line, pipelinable per connection.
// Keys and values travel as JSON strings.

// Request is one client command.
type Request struct {
	Op   string      `json:"op"`             // ping get put del batch snap snapget snaprel flush stats compact crash quit
	Key  string      `json:"key,omitempty"`  // get put del snapget
	Val  string      `json:"val,omitempty"`  // put
	Ops  []RequestOp `json:"ops,omitempty"`  // batch
	Snap uint64      `json:"snap,omitempty"` // snapget snaprel
}

// RequestOp is one mutation inside a batch request.
type RequestOp struct {
	Op  string `json:"op"` // put del
	Key string `json:"key"`
	Val string `json:"val,omitempty"`
}

// Response answers one request. Code types refusals so clients can
// tell a retriable/degraded condition from a plain failure: "readonly"
// (media degraded, reads still served), "full" (log out of space and
// compaction cannot help), "closed" (namespace shut down), "toolarge"
// (the request line is past the 4 MiB cap; the connection closes after
// this response, since the line's end is never found).
type Response struct {
	OK    bool   `json:"ok"`
	Found bool   `json:"found,omitempty"`
	Val   string `json:"val,omitempty"`
	Snap  uint64 `json:"snap,omitempty"`
	Seq   uint64 `json:"seq,omitempty"`
	Err   string `json:"err,omitempty"`
	Code  string `json:"code,omitempty"`
	Stats *Stats `json:"stats,omitempty"`
}

// Refusal codes carried in Response.Code.
const (
	CodeReadOnly = "readonly"
	CodeFull     = "full"
	CodeClosed   = "closed"
	CodeTooLarge = "toolarge"
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
	snaps    map[uint64]*Snapshot
	nextSnap uint64
	stopping bool

	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewServer wraps db.
func NewServer(db *DB) *Server {
	return &Server{db: db, snaps: make(map[uint64]*Snapshot)}
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

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	w := bufio.NewWriter(conn)
	enc := json.NewEncoder(w)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		var resp Response
		if err := json.Unmarshal(line, &req); err != nil {
			resp = Response{Err: "bad request: " + err.Error()}
		} else {
			var terminal func()
			resp, terminal = s.handle(&req)
			if terminal != nil {
				enc.Encode(&resp)
				w.Flush()
				terminal()
				return
			}
		}
		if err := enc.Encode(&resp); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
	// A line past the cap cannot be skipped — its end is unknown — so the
	// connection ends here, with an answer rather than a bare reset.
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		enc.Encode(&Response{Err: "request too large", Code: CodeTooLarge})
		w.Flush()
	}
}

// handle executes one request. A non-nil terminal closure means the
// connection must flush the response and then run it (crash/quit).
func (s *Server) handle(req *Request) (Response, func()) {
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
		snap := s.db.Snapshot()
		s.mu.Lock()
		s.nextSnap++
		id := s.nextSnap
		s.snaps[id] = snap
		s.mu.Unlock()
		return Response{OK: true, Snap: id, Seq: snap.Seq()}, nil
	case "snapget":
		s.mu.Lock()
		snap := s.snaps[req.Snap]
		s.mu.Unlock()
		if snap == nil {
			return Response{Err: fmt.Sprintf("no snapshot %d", req.Snap)}, nil
		}
		v, found, err := snap.Get([]byte(req.Key))
		if err != nil {
			return errResp(err), nil
		}
		return Response{OK: true, Found: found, Val: string(v)}, nil
	case "snaprel":
		s.mu.Lock()
		snap := s.snaps[req.Snap]
		delete(s.snaps, req.Snap)
		s.mu.Unlock()
		if snap != nil {
			snap.Release()
		}
		return Response{OK: true}, nil
	case "flush":
		if err := s.db.Flush(); err != nil {
			return errResp(err), nil
		}
		return Response{OK: true}, nil
	case "stats":
		st := s.db.Stats()
		return Response{OK: true, Seq: st.Seq, Stats: &st}, nil
	case "compact":
		// Admin verb: run (or join) one compaction pass.
		if err := s.db.Compact(); err != nil {
			return errResp(err), nil
		}
		st := s.db.Stats()
		return Response{OK: true, Seq: st.Seq, Stats: &st}, nil
	case "crash":
		// Simulated power failure: on-chip state (and any un-flushed
		// epoch) is lost; the image is what the media held.
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

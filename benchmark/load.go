package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"ccnvm/internal/kv"
)

// passTimeout bounds one load pass; requests still unanswered when it
// expires count as failed, and a closed loop gives the rest of its
// round up.
const passTimeout = 60 * time.Second

// lateLimit is how long after its due time an open-loop request may be
// sent before the generator counts as having run late.
const lateLimit = time.Millisecond

// loadResult is what one client connection measured, or one load pass
// over all connections.
type loadResult struct {
	wall      time.Duration   // of a pass; a connection leaves it zero
	lat       []time.Duration // one per acked and verified request
	late      []time.Duration // open loop: send time minus due time, per request
	attempted int
	failed    int  // errored, refused, mis-verified or never answered
	broken    bool // a connection failed: nothing more can be sent on it
	reqBytes  int64
	respBytes int64
}

func (l *loadResult) acked() int { return len(l.lat) }

// add merges r into l, all but the wall time.
func (l *loadResult) add(r loadResult) {
	l.lat = append(l.lat, r.lat...)
	l.late = append(l.late, r.late...)
	l.attempted += r.attempted
	l.failed += r.failed
	l.broken = l.broken || r.broken
	l.reqBytes += r.reqBytes
	l.respBytes += r.respBytes
}

// verify checks one response line against what the request's
// connection model expects. The byte comparison is the common case; a
// server that encodes the same answer differently still passes through
// the decoded comparison.
func verify(r *request, line []byte) bool {
	if bytes.Equal(line, r.want) {
		return true
	}
	var resp kv.Response
	if err := json.Unmarshal(line, &resp); err != nil || !resp.OK {
		return false
	}
	return !r.isGet() || (resp.Found && resp.Val == r.val)
}

func dial(addr string, n int) ([]net.Conn, error) {
	conns := make([]net.Conn, 0, n)
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			closeAll(conns)
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

func closeAll(conns []net.Conn) {
	for _, c := range conns {
		c.Close()
	}
}

// closedLoop sends each request only after the previous one was
// answered. rec, when not nil, receives one "server" span per request,
// its op numbered from base.
func closedLoop(c net.Conn, reqs []request, rec *recorder, base int) loadResult {
	res := loadResult{lat: make([]time.Duration, 0, len(reqs)), attempted: len(reqs)}
	c.SetDeadline(time.Now().Add(passTimeout))
	br := bufio.NewReaderSize(c, 64<<10)
	for i := range reqs {
		r := &reqs[i]
		t0 := time.Now()
		if _, err := c.Write(r.line); err != nil {
			res.failed += len(reqs) - i
			res.broken = true
			return res
		}
		line, err := br.ReadSlice('\n')
		t1 := time.Now()
		if err != nil {
			res.failed += len(reqs) - i
			res.broken = true
			return res
		}
		res.reqBytes += int64(len(r.line))
		res.respBytes += int64(len(line))
		if !verify(r, line) {
			res.failed++
			continue
		}
		res.lat = append(res.lat, t1.Sub(t0))
		if rec != nil {
			rec.add(spanServer, base+i, -1, t0, t1)
		}
	}
	return res
}

// openLoop sends each request when its schedule says so, whether or
// not earlier ones were answered, and times every request from its due
// time: a server stall is charged to all the requests it delays, not
// only to the one that hit it.
func openLoop(c net.Conn, reqs []request, start time.Time) loadResult {
	res := loadResult{
		lat:       make([]time.Duration, 0, len(reqs)),
		late:      make([]time.Duration, len(reqs)),
		attempted: len(reqs),
	}
	c.SetDeadline(start.Add(passTimeout))
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		// The sender keeps a thread of its own, never handed back, whose
		// sleeps the kernel does not round: by default a sleeping thread
		// is woken up to 50 us late so that wake-ups can be batched.
		runtime.LockOSThread()
		syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0)
		for i := range reqs {
			pauseUntil(start.Add(reqs[i].due))
			res.late[i] = time.Since(start) - reqs[i].due
			if _, err := c.Write(reqs[i].line); err != nil {
				c.Close() // unblocks the reader; the rest count as failed
				return
			}
		}
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	for i := range reqs {
		line, err := br.ReadSlice('\n')
		now := time.Since(start)
		if err != nil {
			res.failed += len(reqs) - i
			break
		}
		res.reqBytes += int64(len(reqs[i].line))
		res.respBytes += int64(len(line))
		if !verify(&reqs[i], line) {
			res.failed++
			continue
		}
		res.lat = append(res.lat, now-reqs[i].due)
	}
	<-sent
	return res
}

// pauseUntil blocks the calling thread in the kernel until t.
// time.Sleep will not do for an open-loop schedule: a Go timer that
// fires while the process is otherwise idle is served through the
// network poller's millisecond timeout, so a 500 us sleep takes about
// 1.1 ms and every request would be sent, and timed, half a millisecond
// late.
func pauseUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // a signal may cut it short; the loop sleeps the rest
	}
}

// runLoad drives streams[i] over conns[i], all starting together, and
// merges what the connections measured. An open loop follows the
// requests' schedule, whose clock reads from when the pass starts.
func runLoad(conns []net.Conn, streams [][]request, open bool, from time.Duration) loadResult {
	results := make([]loadResult, len(conns))
	var wg sync.WaitGroup
	// The open loop's schedule starts a little ahead so that every
	// connection's goroutines exist before the first request is due.
	start := time.Now()
	if open {
		start = start.Add(5 * time.Millisecond)
	}
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if open {
				results[i] = openLoop(conns[i], streams[i], start.Add(-from))
			} else {
				results[i] = closedLoop(conns[i], streams[i], nil, 0)
			}
		}(i)
	}
	wg.Wait()
	out := loadResult{wall: time.Since(start)}
	for _, r := range results {
		out.add(r)
	}
	return out
}

// slice is one short stretch of a load pass, between two readings of
// the host's speed.
type slice struct {
	opsPerS float64 // acked requests per second over all connections, as measured
	p50     float64 // median latency in microseconds, as measured
	slow    float64 // the host's slowdown over the slice, see calib.go
}

// runSliced drives a load pass in n slices: a closed loop in equal
// request counts, an open loop, whose schedule is span long, in equal
// stretches of the schedule. All connections start a slice together
// and the host's speed is read between slices, when every request of
// the slice has been answered; the caller has just read it. It returns
// the whole pass, its wall time the slices' alone, and the slices.
func runSliced(conns []net.Conn, streams [][]request, n int, span time.Duration, sp *speedometer) (loadResult, []slice) {
	var out loadResult
	slices := make([]slice, 0, n)
	part := make([][]request, len(streams))
	done := make([]int, len(streams)) // requests of each stream already driven
	for i := 0; i < n; i++ {
		from, to := span*time.Duration(i)/time.Duration(n), span*time.Duration(i+1)/time.Duration(n)
		for c, s := range streams {
			hi := len(s) * (i + 1) / n
			if span > 0 && i < n-1 {
				hi = done[c] + sort.Search(len(s)-done[c], func(k int) bool { return s[done[c]+k].due >= to })
			}
			part[c], done[c] = s[done[c]:hi], hi
		}
		r := runLoad(conns, part, span > 0, from)
		p50, _ := percentile(sortedMicros(r.lat), 0.5)
		slices = append(slices, slice{opsPerS: ratio(float64(r.acked()), r.wall.Seconds()), p50: p50, slow: sp.since()})
		out.wall += r.wall
		out.add(r)
		if r.broken {
			// What the dead connections still had to send counts as failed.
			for c, s := range streams {
				out.attempted += len(s) - done[c]
				out.failed += len(s) - done[c]
			}
			break
		}
	}
	return out, slices
}

// ping measures the wire and the server alone: n round trips of the
// one request that touches no layer below.
func ping(addr string, n int) (meanUS float64, err error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(passTimeout))
	line := mustLine(kv.Request{Op: "ping"})
	br := bufio.NewReader(c)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := c.Write(line); err != nil {
			return 0, err
		}
		got, err := br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(got, okLine) {
			return 0, fmt.Errorf("ping answered %q", got)
		}
	}
	return float64(time.Since(t0)) / float64(time.Microsecond) / float64(n), nil
}

// Command ccnvm-kvd serves one secure KV namespace over TCP: the
// paper's memory-controller stack (encryption, BMT integrity, epoch
// crash consistency) fronted by the storage-engine facade and the
// log-structured KV layer, speaking a JSON-lines protocol.
//
// The simulated NVM lives in process memory, so "power failure" is
// process exit: the crash op captures the crash image, persists it to
// -image, and exits with status 7. Restarting with the same -image
// runs the four-step recovery plus journal replay and serves every
// acknowledged write again. The quit op is the clean variant: settle
// the final epoch, checkpoint, exit 0.
//
// Usage:
//
//	ccnvm-kvd -addr 127.0.0.1:7070 -image /tmp/nvm.img
//
// Protocol (one JSON object per line, one response per line):
//
//	{"op":"put","key":"k","val":"v"}
//	{"op":"get","key":"k"}
//	{"op":"batch","ops":[{"op":"put","key":"a","val":"1"},{"op":"del","key":"b"}]}
//	{"op":"snap"} / {"op":"snapget","snap":1,"key":"k"} / {"op":"snaprel","snap":1}
//	{"op":"stats"} / {"op":"flush"} / {"op":"compact"} / {"op":"crash"} / {"op":"quit"}
//
// A snapshot belongs to the connection that took it: its id means
// nothing on another connection, and it is released when the connection
// closes. Any valid JSON line is served; README "Serving" gives the
// canonical form that is decoded without reflection.
//
// The compact op runs one log-compaction pass (the admin rung of the
// space-pressure ladder) and returns the refreshed stats, including the
// manifest generation and pass counters.
//
// A namespace whose media has degraded to read-only keeps serving: get,
// snapget, stats and snapshot ops succeed, writes come back as
// {"ok":false,"code":"readonly",...} so clients can tell the refusal
// from a failure, and quit still checkpoints and exits 0 — a degraded
// daemon is retired gracefully, never wedged.
//
// Exit status: 0 clean shutdown, 1 setup error, 2 image refused by
// recovery (tampered), 7 induced crash (restart to recover).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/kv"
	"ccnvm/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address (port 0 picks a free port)")
	designName := flag.String("design", design.CCNVM, "design for a fresh store: "+strings.Join(design.Names(), ", "))
	capacity := flag.Uint64("capacity", 64<<20, "data-region bytes for a fresh store")
	n := flag.Uint64("n", 16, "update limit N (deferred-spreading bound)")
	m := flag.Int("m", 64, "dirty address queue entries M")
	image := flag.String("image", "", "crash-image file: loaded at boot if present, written on crash/quit")
	flag.Parse()

	if err := run(*addr, *designName, *capacity, *n, *m, *image); err != nil {
		fmt.Fprintln(os.Stderr, "ccnvm-kvd:", err)
		os.Exit(1)
	}
}

func run(addr, designName string, capacity, n uint64, m int, image string) error {
	params := engine.Params{UpdateLimit: n, QueueEntries: m}
	var st *store.Store
	if image != "" {
		if _, err := os.Stat(image); err == nil {
			img, err := store.LoadImage(image)
			if err != nil {
				return fmt.Errorf("load image %s: %w", image, err)
			}
			st2, rep, err := store.Reboot(img, store.Options{Params: params})
			if err != nil {
				fmt.Fprintf(os.Stderr, "ccnvm-kvd: image refused by recovery: %v\n", err)
				os.Exit(2)
			}
			fmt.Printf("recovered %s image: clean=%v lossless=%v\n", img.Design, rep.Clean(), rep.Lossless())
			st = st2
		}
	}
	if st == nil {
		var err error
		st, err = store.Open(store.Options{Design: designName, Capacity: capacity, Params: params})
		if err != nil {
			return err
		}
	}
	db, err := kv.Open(st, kv.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("serving %s: %d keys, seq %d\n", st.Design(), db.Stats().Keys, db.Stats().Seq)

	srv := kv.NewServer(db)
	srv.OnShutdown = func(img *engine.CrashImage, clean bool) {
		code := 0
		if !clean {
			code = 7
		}
		if image != "" {
			if err := store.SaveImage(image, img); err != nil {
				fmt.Fprintln(os.Stderr, "ccnvm-kvd: save image:", err)
				os.Exit(1)
			}
		}
		kind := "clean shutdown"
		if !clean {
			kind = "power failure"
		}
		fmt.Printf("%s: image persisted, exit %d\n", kind, code)
		os.Exit(code)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The literal "listening on" line is the readiness handshake the
	// load harness and kv-smoke wait for; keep it stable.
	fmt.Printf("listening on %s\n", ln.Addr())
	return srv.Serve(ln)
}

package main

import (
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Keeping the virtual CPUs awake. The guest this benchmark was defined
// on has no idle driver: a CPU with nothing to run halts, the
// hypervisor takes it away, and waking it for the next request costs 30
// to 100 us depending on what the host's other guests are doing. An
// open loop at a third of the stack's capacity pays that three times a
// request (sender, server, reader), which made kv_churn's median
// latency twice what the program spends and moved it by a third from
// one minute to the next with no reading of the reference kernel to
// show for it. So a run starts one child process per CPU that spins at
// the kernel's idle priority: any thread of the benchmark preempts it
// at once and it takes no time from a busy CPU, but the CPU never
// halts, a wake-up costs a context switch as it does on a host of one's
// own, and what is left of the host's moods is its speed, which the
// reference kernel reads (calib.go).

// spinLimit is how long a spinner lives at the most, in case the run
// that started it is killed and its parent id does not change.
const spinLimit = 10 * time.Minute

// keepAwake starts the spinners and returns how many there are and the
// function that stops them and waits for them to end. A host that
// refuses one runs without it.
func keepAwake() (n int, stop func()) {
	exe, err := os.Executable()
	if err != nil {
		return 0, func() {}
	}
	var cmds []*exec.Cmd
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(exe, "-spin")
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		if cmd.Start() == nil {
			cmds = append(cmds, cmd)
		}
	}
	return len(cmds), func() {
		for _, c := range cmds {
			c.Process.Kill()
			c.Wait() // the error says it was killed
		}
	}
}

// spin is the child: it moves itself to the idle scheduling class and
// counts until its parent is gone.
func spin() int {
	runtime.LockOSThread() // the class is the thread's
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		return 3 // a spinner at normal priority would take the CPUs it is meant to keep ready
	}
	parent := os.Getppid()
	for end := time.Now().Add(spinLimit); os.Getppid() == parent && time.Now().Before(end); {
		for i := 0; i < 1<<20; i++ {
			spun++
		}
	}
	return 0
}

var spun uint64

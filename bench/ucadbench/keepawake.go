package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The keep-awake helper. The box the benchmark runs on is a small VM on a
// shared host, and the host runs a virtual CPU that has just been idle at
// a fraction of its speed: a busy loop takes 1.45x to 2x as long in the
// first second after an idle spell as it does afterwards. An open-loop
// phase at 40–50 % load is idle half of the time, and a closed-loop phase
// starts right after a drain, so without care every timing carries that
// lottery (identical runs of inproc-hot's saturate phase land anywhere
// between 210k and 390k events/s).
//
// So a run keeps CPUs awake for its whole length: a child process — this
// binary, run as `ucadbench keepawake <n>` — spins one thread on each of n
// CPUs under SCHED_IDLE, the scheduling class that only ever gets cycles
// no other thread wants and is preempted the moment one wakes. It takes no
// CPU from the system under test or the generator, is not part of this
// process's getrusage (so cpu_ms_per_kevent never sees it), and makes no
// load: it only keeps the host from parking the CPUs between events.
//
// n is every CPU where the measured path stays in memory, and every CPU
// but one where it touches the disk (spec.awakeCPUs): with all of this
// VM's CPUs spinning the host serves its disk late — an fsync takes 8 ms
// instead of 0.1 ms for seconds at a time, four concurrent fsync streams
// drop from 20 000/s to 500/s — and with one left alone it does not.
//
// It is a process of its own rather than threads here because a spinning
// goroutine holds a P, and one that is starved by design would hold up
// every stop-the-world phase of this process's collector.
//
// The child exits when its standard input reaches end of file, which
// happens when stop() closes the pipe and also when this process dies in
// any other way, so it can never be left behind.
type keepAwake struct {
	cmd   *exec.Cmd
	stdin io.Closer
}

// helper is the running keep-awake child, if any; fatal() and main stop it
// on every path out of the program.
var helper *keepAwake

func startKeepAwake(cpus int) *keepAwake {
	if cpus < 1 {
		return nil
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ucadbench: no keep-awake helper:", err)
		return nil
	}
	cmd := exec.Command(self, "keepawake", strconv.Itoa(cpus))
	stdin, err := cmd.StdinPipe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ucadbench: no keep-awake helper:", err)
		return nil
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "ucadbench: no keep-awake helper:", err)
		return nil
	}
	return &keepAwake{cmd: cmd, stdin: stdin}
}

// stop ends the child and waits for it. Safe on nil and to call twice.
func (k *keepAwake) stop() {
	if k == nil || k.cmd == nil {
		return
	}
	k.stdin.Close()
	k.cmd.Wait() // exit status 0 by construction; nothing to do about another
	k.cmd = nil
}

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

// keepAwakeMain is the child: one SCHED_IDLE spinner pinned to each of
// the first n CPUs this process may run on, until standard input closes.
func keepAwakeMain(args []string) int {
	cpus := allowedCPUs()
	if len(args) != 1 {
		return 2
	}
	if n, err := strconv.Atoi(args[0]); err != nil || n < 1 {
		return 2
	} else if n < len(cpus) {
		cpus = cpus[:n]
	}
	runtime.GOMAXPROCS(len(cpus) + 1) // the spinners' Ps, and one to notice end of file
	for _, cpu := range cpus {
		go spin(cpu)
	}
	io.Copy(io.Discard, os.Stdin)
	return 0
}

func spin(cpu int) {
	runtime.LockOSThread()
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	// Pinning is a refinement (unpinned spinners still find the idle CPUs);
	// the scheduling class is the point: without it the spinner would
	// compete with the system under test, so better no spinner at all.
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	var prio int32 // sched_param{sched_priority: 0}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); errno != 0 {
		fmt.Fprintln(os.Stderr, "ucadbench keepawake: SCHED_IDLE refused, not spinning:", errno)
		return
	}
	for {
	}
}

// allowedCPUs lists the CPUs in this process's affinity mask (what nproc
// counts).
func allowedCPUs() []int {
	var mask [16]uint64
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	var cpus []int
	if errno == 0 {
		for i := 0; i < int(n)*8 && i < len(mask)*64; i++ {
			if mask[i/64]&(1<<(i%64)) != 0 {
				cpus = append(cpus, i)
			}
		}
	}
	if len(cpus) == 0 {
		for i := 0; i < runtime.NumCPU(); i++ {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

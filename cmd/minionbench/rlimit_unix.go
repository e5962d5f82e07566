//go:build unix

package main

import (
	"fmt"
	"syscall"
)

// raiseFDLimit lifts RLIMIT_NOFILE to at least need descriptors (the
// connscale sweep opens two sockets per loopback connection, with
// netpoller headroom on top). The soft limit is raised within the hard
// limit first; when the hard limit itself is short — the usual state on
// 100k-scale sweeps, where distro defaults sit at 1024–65536 — the hard
// limit is raised too, which the kernel permits for root or
// CAP_SYS_RESOURCE (CI runners, most containers). Failure reports every
// number involved so the caller can fail fast with an actionable error
// instead of drowning in EMFILE.
func raiseFDLimit(need uint64) error {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return err
	}
	soft, hard := uint64(lim.Cur), uint64(lim.Max)
	if soft >= need {
		return nil
	}
	if hard >= need {
		setRlim(&lim.Cur, need)
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
			return fmt.Errorf("raising RLIMIT_NOFILE soft limit %d -> %d (hard %d): %w",
				soft, need, hard, err)
		}
		return nil
	}
	try := lim
	setRlim(&try.Cur, need)
	setRlim(&try.Max, need)
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &try); err == nil {
		return nil
	}
	return fmt.Errorf("RLIMIT_NOFILE too low: need %d fds, soft limit %d, hard limit %d "+
		"(raise it with `ulimit -Hn`/LimitNOFILE= or grant CAP_SYS_RESOURCE)",
		need, soft, hard)
}

// setRlim stores v in an Rlimit field, which is uint64 on most unixes but
// int64 on FreeBSD.
func setRlim[T int64 | uint64](f *T, v uint64) { *f = T(v) }

//go:build !linux

package rt

import "time"

// timerFile is a Linux timerfd; elsewhere openTimerFile always fails and
// every loop sleeps on its Go timer.
type timerFile struct{}

func openTimerFile() *timerFile { return nil }

func (t *timerFile) set(at, now time.Duration) {}

func (t *timerFile) wait() {}

func (t *timerFile) interrupt() {}

func (t *timerFile) close() {}

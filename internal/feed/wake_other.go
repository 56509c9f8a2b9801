//go:build !linux

package feed

import (
	"context"
	"time"
)

// watcher has no implementation off Linux: newWatcher returns nil and
// the tailer waits on its Poll timer alone.
type watcher struct{}

func newWatcher(string) *watcher { return nil }

func (*watcher) watchFile(string) {}

func (*watcher) unwatchFile() {}

func (*watcher) wait(context.Context, time.Duration) error { return nil }

func (*watcher) close() {}

package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

func batch(ups ...Update) []Update { return ups }

func up(op Op, u, v int) Update { return Update{Op: op, U: u, V: v} }

// collect replays the whole log into a flat (seq, update) trace.
type traced struct {
	seq uint64
	up  Update
}

func replayAll(t *testing.T, l *Log, after uint64) []traced {
	t.Helper()
	var out []traced
	if err := l.Replay(after, func(seq uint64, b []Update) error {
		for _, u := range b {
			out = append(out, traced{seq, u})
		}
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

// TestAppendSyncReplayRoundTrip is the basic contract on both the real and
// the in-memory filesystem: what is appended is replayed, in order, with
// seqs intact, across a close/reopen.
func TestAppendSyncReplayRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		fs   FS
	}{
		{"osfs", OsFS{}},
		{"memfs", NewMemFS()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{FS: tc.fs})
			if err != nil {
				t.Fatal(err)
			}
			want := []traced{
				{2, up(OpAdd, 1, 2)},
				{2, up(OpRemove, 3, 4)},
				{3, up(OpAdd, 100000, 7)},
				{5, up(OpAdd, 8, 9)},
			}
			if err := l.Append(2, batch(want[0].up, want[1].up)); err != nil {
				t.Fatal(err)
			}
			if err := l.Append(3, batch(want[2].up)); err != nil {
				t.Fatal(err)
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l.Append(5, batch(want[3].up)); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			l2, err := Open(dir, Options{FS: tc.fs})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			got := replayAll(t, l2, 0)
			if len(got) != len(want) {
				t.Fatalf("replayed %d updates, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("replay[%d] = %+v, want %+v", i, got[i], want[i])
				}
			}
			// Filtered replay skips everything at or below the watermark.
			if got := replayAll(t, l2, 3); len(got) != 1 || got[0].seq != 5 {
				t.Fatalf("replay after 3 = %+v, want just seq 5", got)
			}
			if l2.LastSeq() != 5 {
				t.Fatalf("LastSeq = %d, want 5", l2.LastSeq())
			}
		})
	}
}

// TestSeqMonotonicity pins the append-side guards: zero and regressing
// seqs are rejected, repeats are allowed (several batches can fold into one
// publish epoch).
func TestSeqMonotonicity(t *testing.T) {
	l, err := Open(t.TempDir(), Options{FS: NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(0, batch(up(OpAdd, 1, 2))); err == nil {
		t.Fatal("seq 0 accepted")
	}
	if err := l.Append(4, batch(up(OpAdd, 1, 2))); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(4, batch(up(OpAdd, 2, 3))); err != nil {
		t.Fatal("repeated seq rejected")
	}
	if err := l.Append(3, batch(up(OpAdd, 3, 4))); err == nil {
		t.Fatal("regressing seq accepted")
	}
}

// TestSegmentRotationAndPrune rotates through several segments, then
// checkpoints and verifies fully-covered segments and stale checkpoints are
// pruned while replay stays complete above the checkpoint.
func TestSegmentRotationAndPrune(t *testing.T) {
	fs := NewMemFS()
	dir := t.TempDir()
	l, err := Open(dir, Options{FS: fs, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for seq := uint64(1); seq <= 40; seq++ {
		if err := l.Append(seq, batch(up(OpAdd, int(seq), int(seq)+1), up(OpRemove, 7, int(seq)))); err != nil {
			t.Fatal(err)
		}
		total += 2
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("only %d segments after 40 batches with 256-byte rotation", st.Segments)
	}
	if st.DurableSeq != 40 || st.LastSeq != 40 {
		t.Fatalf("durable/last = %d/%d, want 40/40", st.DurableSeq, st.LastSeq)
	}
	if got := replayAll(t, l, 0); len(got) != total {
		t.Fatalf("replayed %d, want %d", len(got), total)
	}

	// Three checkpoints: retention keeps the newest two (the older of them
	// is the corruption-fallback anchor) and prunes everything below —
	// checkpoint 20 and every segment fully covered by checkpoint 30.
	for _, seq := range []uint64{20, 30, 35} {
		payload := fmt.Sprintf("snap%d", seq)
		if err := l.WriteCheckpoint(seq, func(w io.Writer) error { _, err := w.Write([]byte(payload)); return err }); err != nil {
			t.Fatal(err)
		}
	}
	cks := l.Checkpoints()
	if len(cks) != 2 || cks[0] != 35 || cks[1] != 30 {
		t.Fatalf("checkpoints after prune = %v, want [35 30]", cks)
	}
	rc, err := l.OpenCheckpoint(35)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(rc)
	rc.Close()
	if string(data) != "snap35" {
		t.Fatalf("checkpoint payload %q", data)
	}
	after := replayAll(t, l, 35)
	if len(after) != 2*(40-35) {
		t.Fatalf("replay above checkpoint: %d updates, want %d", len(after), 2*(40-35))
	}
	st = l.Stats()
	if st.CheckpointSeq != 35 {
		t.Fatalf("stats checkpoint seq %d", st.CheckpointSeq)
	}
	// Every surviving segment must still be needed: its last record above
	// the checkpoint (or it is the active segment).
	names, _ := fs.ReadDir(dir)
	nseg := 0
	for _, n := range names {
		if strings.HasSuffix(n, segSuffix) {
			nseg++
		}
	}
	if nseg != st.Segments || nseg >= 5 {
		t.Fatalf("pruning left %d segments (stats says %d)", nseg, st.Segments)
	}

	// Reopen after all of that: state is intact.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Checkpoints(); len(got) != 2 || got[0] != 35 {
		t.Fatalf("reopened checkpoints = %v", got)
	}
	if got := replayAll(t, l2, 35); len(got) != 2*5 {
		t.Fatalf("reopened replay above checkpoint: %d updates", len(got))
	}
}

// TestTornTailTruncatedOnOpen crashes mid-write so a torn record prefix
// lands on disk, then reopens: the torn suffix must be dropped, every
// synced record kept, and appending must continue cleanly.
func TestTornTailTruncatedOnOpen(t *testing.T) {
	for _, keep := range []float64{0, 0.3, 0.7, 1} {
		t.Run(fmt.Sprintf("keep=%.1f", keep), func(t *testing.T) {
			fs := NewMemFS()
			dir := t.TempDir()
			l, err := Open(dir, Options{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(1, batch(up(OpAdd, 1, 2))); err != nil {
				t.Fatal(err)
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			// Crash on the very next write: its torn prefix reaches disk.
			fs.CrashAfter(0, keep)
			err = l.Append(2, batch(up(OpAdd, 3, 4), up(OpAdd, 5, 6)))
			if err == nil {
				// The header write may have torn instead of the payload
				// write; either way something must have failed by Sync.
				err = l.Sync()
			}
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("crash not surfaced: %v", err)
			}
			fs.Crash()

			l2, err := Open(dir, Options{FS: fs})
			if err != nil {
				t.Fatalf("open after crash: %v", err)
			}
			got := replayAll(t, l2, 0)
			if len(got) != 1 || got[0].seq != 1 {
				t.Fatalf("replay after torn tail = %+v, want only seq 1", got)
			}
			// The log must keep working where it left off.
			if err := l2.Append(2, batch(up(OpAdd, 9, 9))); err != nil {
				t.Fatal(err)
			}
			if err := l2.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			l3, err := Open(dir, Options{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			defer l3.Close()
			if got := replayAll(t, l3, 0); len(got) != 2 {
				t.Fatalf("after repair+append, replay = %+v", got)
			}
		})
	}
}

// TestUnsyncedAppendLostOnCrash: without Sync, a crash loses the batch —
// and Open must see a clean (not corrupt) log.
func TestUnsyncedAppendLostOnCrash(t *testing.T) {
	fs := NewMemFS()
	dir := t.TempDir()
	l, err := Open(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, batch(up(OpAdd, 1, 2))); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(2, batch(up(OpAdd, 3, 4))); err != nil {
		t.Fatal(err)
	}
	// No sync; reboot.
	fs.Crash()
	l2, err := Open(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := replayAll(t, l2, 0)
	if len(got) != 1 || got[0].seq != 1 {
		t.Fatalf("unsynced batch survived the crash: %+v", got)
	}
}

// TestInteriorCorruptionRefused: a bit flip in a sealed (non-final) segment
// is not a torn tail and must fail Open with ErrCorruptLog, not be
// silently truncated.
func TestInteriorCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 30; seq++ {
		if err := l.Append(seq, batch(up(OpAdd, int(seq), int(seq+1)))); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Segments < 2 {
		t.Fatalf("need >= 2 segments, got %d", st.Segments)
	}
	first := l.segments[0].name
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(dir + "/" + first)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(dir+"/"+first, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	if !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("interior corruption: Open err = %v, want ErrCorruptLog", err)
	}
}

// TestInjectedWriteFailure: a non-crash fault (ENOSPC-style) surfaces as an
// error without wedging the log data that was already durable.
func TestInjectedWriteFailure(t *testing.T) {
	fs := NewMemFS()
	dir := t.TempDir()
	l, err := Open(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, batch(up(OpAdd, 1, 2))); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("%w: disk full", ErrInjected)
	fs.Fail = func(op, name string) error {
		if op == "write" {
			return boom
		}
		return nil
	}
	if err := l.Append(2, batch(up(OpAdd, 3, 4))); !errors.Is(err, ErrInjected) {
		t.Fatalf("injected write failure not surfaced: %v", err)
	}
	fs.Fail = nil
}

// TestShortWriteDetected: a short write tears a record in the cache; after
// a crash the tail is repaired, and before any crash the in-process error
// is surfaced to the caller.
func TestShortWriteDetected(t *testing.T) {
	fs := NewMemFS()
	dir := t.TempDir()
	l, err := Open(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, batch(up(OpAdd, 1, 2))); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	armed := true
	fs.Fail = func(op, name string) error {
		if op == "write" && armed {
			armed = false
			return &ShortWrite{N: 3}
		}
		return nil
	}
	if err := l.Append(2, batch(up(OpAdd, 3, 4))); err == nil {
		t.Fatal("short write not surfaced")
	}
	fs.Fail = nil
	// The 3 stray bytes sit unsynced in the cache; a crash discards them
	// and the log reopens with exactly the synced record.
	fs.Crash()
	l2, err := Open(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := replayAll(t, l2, 0); len(got) != 1 {
		t.Fatalf("replay = %+v, want 1 update", got)
	}
}

// TestCheckpointAtomicity: crash at every single filesystem operation of
// WriteCheckpoint; after each crash the directory must hold either the old
// checkpoint set or the new one — never a half-written file under the
// final checkpoint name.
func TestCheckpointAtomicity(t *testing.T) {
	// First, count the ops a successful checkpoint takes.
	probe := NewMemFS()
	l, err := Open(t.TempDir(), Options{FS: probe})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, batch(up(OpAdd, 1, 2))); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpoint(1, func(w io.Writer) error { _, err := w.Write(bytes.Repeat([]byte("x"), 64)); return err }); err != nil {
		t.Fatal(err)
	}
	base := probe.OpCount()

	for at := 0; at < base; at++ {
		fs := NewMemFS()
		dir := t.TempDir()
		l, err := Open(dir, Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		// Arm after setup so the crash lands somewhere in the append/sync/
		// checkpoint sequence.
		fs.CrashAfter(at, 0.5)
		_ = l.Append(1, batch(up(OpAdd, 1, 2)))
		_ = l.Sync()
		_ = l.WriteCheckpoint(1, func(w io.Writer) error { _, err := w.Write(bytes.Repeat([]byte("x"), 64)); return err })
		fs.Crash()

		l2, err := Open(dir, Options{FS: fs})
		if err != nil {
			t.Fatalf("crash at op %d: reopen failed: %v", at, err)
		}
		for _, seq := range l2.Checkpoints() {
			rc, err := l2.OpenCheckpoint(seq)
			if err != nil {
				t.Fatalf("crash at op %d: checkpoint %d unopenable: %v", at, seq, err)
			}
			data, err := io.ReadAll(rc)
			rc.Close()
			if err != nil || len(data) != 64 {
				t.Fatalf("crash at op %d: checkpoint %d torn: %d bytes, err %v", at, seq, len(data), err)
			}
		}
		l2.Close()
	}
}

package rcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func open(t *testing.T, opt Options) *Cache {
	t.Helper()
	c, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestKeyOfBoundaries(t *testing.T) {
	if KeyOf("ab", "c") == KeyOf("a", "bc") {
		t.Fatal("part boundaries are not part of the key")
	}
	if KeyOf("a") == KeyOf("a", "") {
		t.Fatal("empty trailing part does not change the key")
	}
	if KeyOf("a", "b") != KeyOf("a", "b") {
		t.Fatal("KeyOf is not deterministic")
	}
}

// TestSchemaBumpOrphansOldEntries: callers fold SchemaVersion into every
// key, so an entry a previous schema stored — a Report whose Timeline had
// the old bucket geometry (/1), or whose features came from float-cycle
// samples (/2) — is a miss under the current one, on disk as in memory.
func TestSchemaBumpOrphansOldEntries(t *testing.T) {
	for _, oldSchema := range []string{"drbw.rcache/1", "drbw.rcache/2"} {
		dir := t.TempDir()
		old := open(t, Options{Dir: dir})
		old.Put(KeyOf(oldSchema, "analyze", "trace"), []byte("old report"))

		c := open(t, Options{Dir: dir})
		if SchemaVersion == oldSchema {
			t.Fatalf("schema version was not bumped past %s", oldSchema)
		}
		if v, ok := c.Get(KeyOf(SchemaVersion, "analyze", "trace")); ok {
			t.Fatalf("entry from %s served: %q", oldSchema, v)
		}
		if _, ok := c.Get(KeyOf(oldSchema, "analyze", "trace")); !ok {
			t.Fatalf("the %s entry itself should still be on disk", oldSchema)
		}
	}
}

func TestMemoryOnlyPutGet(t *testing.T) {
	c := open(t, Options{})
	k := KeyOf("k")
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, []byte("value"))
	v, ok := c.Get(k)
	if !ok || string(v) != "value" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", st)
	}
}

func TestDiskRoundTripAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	k := KeyOf("persisted")
	c1 := open(t, Options{Dir: dir})
	c1.Put(k, []byte("survives"))

	// A fresh instance has an empty memory tier; the value must come back
	// from disk, checksum-verified.
	c2 := open(t, Options{Dir: dir})
	v, ok := c2.Get(k)
	if !ok || string(v) != "survives" {
		t.Fatalf("disk Get = %q, %v", v, ok)
	}
	if st := c2.Stats(); st.DiskBytes == 0 {
		t.Fatal("Open did not account for the pre-existing entry")
	}
}

// entryFiles lists the .rc files under dir.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*"+entryExt))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCorruptEntriesAreMisses(t *testing.T) {
	for name, corrupt := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bitflip": func(b []byte) []byte {
			b[len(b)-1] ^= 0x40
			return b
		},
		"bitflip_header": func(b []byte) []byte {
			b[2] ^= 0x01
			return b
		},
		"empty": func(b []byte) []byte { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			k := KeyOf("victim", name)
			c1 := open(t, Options{Dir: dir})
			c1.Put(k, []byte("the real value"))
			files := entryFiles(t, dir)
			if len(files) != 1 {
				t.Fatalf("entry files = %v", files)
			}
			raw, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(files[0], corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			c2 := open(t, Options{Dir: dir})
			if v, ok := c2.Get(k); ok {
				t.Fatalf("corrupt entry served as a hit: %q", v)
			}
			st := c2.Stats()
			if st.Corrupt != 1 {
				t.Fatalf("corrupt count = %d, want 1", st.Corrupt)
			}
			if rest := entryFiles(t, dir); len(rest) != 0 {
				t.Fatalf("corrupt entry not deleted: %v", rest)
			}
			// The slot is reusable: a recompute re-populates it.
			c2.Put(k, []byte("recomputed"))
			if v, ok := c2.Get(k); !ok || string(v) != "recomputed" {
				t.Fatalf("after recompute Get = %q, %v", v, ok)
			}
		})
	}
}

func TestMemEvictionBudget(t *testing.T) {
	c := open(t, Options{MemBytes: 100})
	for i := 0; i < 10; i++ {
		c.Put(KeyOf(fmt.Sprint(i)), bytes.Repeat([]byte{byte(i)}, 30))
	}
	st := c.Stats()
	if st.MemBytes > 100 {
		t.Fatalf("mem tier holds %d bytes, budget 100", st.MemBytes)
	}
	if st.MemEvictions == 0 {
		t.Fatal("no mem evictions under a 100-byte budget")
	}
	// The newest entries survive, the oldest are gone (LRU order).
	if _, ok := c.memGet(KeyOf("9")); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, ok := c.memGet(KeyOf("0")); ok {
		t.Fatal("oldest entry survived a full budget cycle")
	}
}

func TestDiskEvictionBudget(t *testing.T) {
	dir := t.TempDir()
	// Each entry is entryHeaderLen (40) + 30 payload = 70 bytes; budget
	// fits three.
	c := open(t, Options{Dir: dir, DiskBytes: 220})
	for i := 0; i < 8; i++ {
		k := KeyOf("disk", fmt.Sprint(i))
		c.Put(k, bytes.Repeat([]byte{byte(i)}, 30))
		// mtime granularity is the disk LRU's clock; space the writes out.
		time.Sleep(2 * time.Millisecond)
	}
	var total int64
	for _, f := range entryFiles(t, dir) {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	if total > 220 {
		t.Fatalf("disk tier holds %d bytes, budget 220", total)
	}
	st := c.Stats()
	if st.DiskEvictions == 0 {
		t.Fatal("no disk evictions under budget pressure")
	}
	// The latest write is always spared.
	c2 := open(t, Options{Dir: dir})
	if _, ok := c2.Get(KeyOf("disk", "7")); !ok {
		t.Fatal("most recent entry evicted from disk")
	}
}

func TestDoSingleflight(t *testing.T) {
	c := open(t, Options{Dir: t.TempDir()})
	k := KeyOf("flight")
	var computes atomic.Int64
	release := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	vals := make([][]byte, callers)
	hits := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := c.Do(k, func() ([]byte, error) {
				computes.Add(1)
				<-release
				return []byte("computed once"), nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], hits[i] = v, hit
		}(i)
	}
	// Give every goroutine time to reach the flight, then release the leader.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	nhit := 0
	for i := range vals {
		if string(vals[i]) != "computed once" {
			t.Fatalf("caller %d got %q", i, vals[i])
		}
		if hits[i] {
			nhit++
		}
	}
	if nhit != callers-1 {
		t.Fatalf("%d callers reported hit, want %d (all but the leader)", nhit, callers-1)
	}
	// A later Do is a plain memory hit.
	if _, hit, err := c.Do(k, func() ([]byte, error) { t.Fatal("recompute"); return nil, nil }); err != nil || !hit {
		t.Fatalf("warm Do hit = %v, err = %v", hit, err)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := open(t, Options{Dir: t.TempDir()})
	k := KeyOf("err")
	boom := fmt.Errorf("boom")
	if _, _, err := c.Do(k, func() ([]byte, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure left nothing behind; the next Do computes and succeeds.
	v, hit, err := c.Do(k, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(v) != "ok" {
		t.Fatalf("after error: %q hit=%v err=%v", v, hit, err)
	}
}

func TestClear(t *testing.T) {
	dir := t.TempDir()
	c := open(t, Options{Dir: dir})
	k := KeyOf("gone")
	c.Put(k, []byte("x"))
	if err := c.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("hit after Clear")
	}
	if files := entryFiles(t, dir); len(files) != 0 {
		t.Fatalf("entries survive Clear: %v", files)
	}
}

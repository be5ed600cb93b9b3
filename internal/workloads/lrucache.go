package workloads

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/jvm"
)

// LRUCache is the single-threaded memory-bound cache microbenchmark the
// paper uses for its scalability studies (Figs. 2 and 14): random get/put
// traffic over values of wildly mixed sizes, evicting least-recently-used
// entries. The paper caches objects of 1 B – 2 MB with 2K entries in a
// 4.5 GiB heap; scaled here to 8 B – 512 KB with 48 entries, preserving
// the property that nearly all cached bytes sit in swappable objects.
func LRUCache() *Spec {
	const (
		entries  = 48
		keySpace = 192
		maxValue = 512 << 10
		ops      = 600
	)
	liveBytes := int64(entries) * int64(maxValue) / 2
	return &Spec{
		Name:         "LRUCache",
		Suite:        "-",
		PaperThreads: 1,
		PaperHeap:    "4.5 GiB",
		Threads:      1,
		MinHeapBytes: liveBytes*5/4 + 1<<20,
		Run: func(j *jvm.JVM, seed int64) error {
			return seededThreads(j, seed, func(t *jvm.Thread, rng *rand.Rand) error {
				return lruThread(t, rng, entries, keySpace, maxValue, ops)
			})
		},
	}
}

// lruEntry is the host-side cache metadata; the value bytes live on the
// simulated heap behind the root.
type lruEntry struct {
	key        int
	size       int
	root       *gc.Root
	prev, next *lruEntry
}

// lruList is a doubly linked LRU list with a map index, mirroring a
// LinkedHashMap-based Java cache.
type lruList struct {
	byKey      map[int]*lruEntry
	head, tail *lruEntry // head = most recent
}

func (l *lruList) moveToFront(e *lruEntry) {
	if l.head == e {
		return
	}
	l.unlink(e)
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *lruList) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if l.head == e {
		l.head = e.next
	}
	if l.tail == e {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func lruThread(t *jvm.Thread, rng *rand.Rand, entries, keySpace, maxValue, ops int) error {
	cache := &lruList{byKey: map[int]*lruEntry{}}
	hits, misses := 0, 0

	for op := 0; op < ops; op++ {
		key := rng.Intn(keySpace)
		if e, ok := cache.byKey[key]; ok {
			// Hit: touch the value (read its tag and some of its bytes).
			hits++
			tag, err := t.J.Heap.ReadPayloadWord(t.Ctx, e.root.Obj, 0, 0)
			if err != nil {
				return err
			}
			if int(tag) != key {
				return fmt.Errorf("lru: entry for key %d holds tag %d", key, tag)
			}
			n := min(e.size, 4096)
			buf := make([]byte, n)
			if err := t.J.Heap.ReadPayload(t.Ctx, e.root.Obj, 0, 0, buf); err != nil {
				return err
			}
			chargeOps(t, float64(n), 0.5)
			cache.moveToFront(e)
			continue
		}
		// Miss: insert a fresh value of random size.
		misses++
		size := 8 + rng.Intn(maxValue-8)
		root, err := t.AllocRooted(heap.AllocSpec{Payload: size, Class: clsLRUValue})
		if err != nil {
			return err
		}
		var word [8]byte
		binary.LittleEndian.PutUint64(word[:], uint64(key))
		if err := t.J.Heap.WritePayload(t.Ctx, root.Obj, 0, 0, word[:]); err != nil {
			return err
		}
		// Fill a prefix so the value has real content beyond the tag.
		fill := min(size, 16<<10)
		if err := fillPayloadAt(t, root.Obj, 8, fill-8, uint64(key)); err != nil {
			return err
		}
		e := &lruEntry{key: key, size: size, root: root}
		cache.byKey[key] = e
		cache.moveToFront(e)
		if len(cache.byKey) > entries {
			victim := cache.tail
			cache.unlink(victim)
			delete(cache.byKey, victim.key)
			t.J.Roots.Remove(victim.root) // the value becomes garbage
		}
	}
	if hits == 0 || misses == 0 {
		return fmt.Errorf("lru: degenerate run (hits=%d, misses=%d)", hits, misses)
	}
	return nil
}

// fillPayloadAt writes a deterministic pattern at a payload offset.
func fillPayloadAt(t *jvm.Thread, o heap.Object, off, n int, seed uint64) error {
	if n <= 0 {
		return nil
	}
	buf := make([]byte, n)
	s := seed
	for i := range buf {
		s = s*6364136223846793005 + 1442695040888963407
		buf[i] = byte(s >> 56)
	}
	return t.J.Heap.WritePayload(t.Ctx, o, 0, off, buf)
}

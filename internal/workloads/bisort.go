package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/jvm"
	"repro/internal/sim"
)

// Bisort is the JOlden bitonic-sort benchmark: a binary tree of small
// pointer-linked nodes whose values are sorted by recursive bitonic
// merges of value swaps. The paper sets 2M entries; scaled here to 4K
// nodes per thread. All objects are far below the swapping threshold, so
// this benchmark exercises the collectors' small-object paths and the
// write barrier (subtree churn rewrites parent references) — the contrast
// case where SwapVA cannot help much.
func Bisort() *Spec {
	return bisortSpec(4096, 8) // 4096 nodes per thread; paper input 2M entries
}

// bisortSpec is Bisort over nodes tree nodes per thread and rounds sort
// rounds, its heap sized to match.
func bisortSpec(nodes, rounds int) *Spec {
	const threads = 8
	nodeBytes := int64(heap.AllocSpec{NumRefs: 2, Payload: 8}.TotalBytes())
	liveBytes := int64(threads) * int64(nodes) * nodeBytes
	return &Spec{
		Name:         "Bisort",
		Suite:        "JOlden",
		PaperThreads: 896,
		PaperHeap:    "8 - 19.2 GiB",
		Threads:      threads,
		MinHeapBytes: liveBytes*5/4 + 512<<10,
		Run: func(j *jvm.JVM, seed int64) error {
			return seededThreads(j, seed, func(t *jvm.Thread, rng *rand.Rand) error {
				return bisortThread(t, rng, nodes, rounds)
			})
		},
	}
}

const (
	slotLeft  = 0
	slotRight = 1
)

// bisortThread builds a perfect tree over 2^k-1 nodes, bitonic-sorts it
// twice per round (ascending then descending), and churns a subtree.
func bisortThread(t *jvm.Thread, rng *rand.Rand, nodes, rounds int) error {
	// Round nodes down to a perfect-tree size.
	size := 1
	for size*2-1 <= nodes {
		size *= 2
	}
	n := size - 1

	rootObj, err := buildTree(t, rng, depthFor(n))
	if err != nil {
		return err
	}
	// NOTE: a raw heap.Object is only valid until the next potential GC
	// point (any allocation); afterwards it must be re-read from a
	// *gc.Root or a heap reference slot, because compaction moves
	// objects. Pure traversals below never allocate, so passing raw
	// objects within one traversal is safe.
	root := t.J.Roots.Add(rootObj)

	var sum uint64
	if _, err := treeFold(t, root.Obj, &sum); err != nil {
		return err
	}

	// A compare-exchange's compute charge, chargeOps(t, 4, 1.0),
	// quantised once for the sort's every compare.
	cmpCost := sim.ToTicks(t.Ctx.Cost.CyclesNs(4))
	for round := 0; round < rounds; round++ {
		if err := bisortRec(t, root.Obj, false, cmpCost); err != nil {
			return err
		}
		if err := bisortRec(t, root.Obj, true, cmpCost); err != nil {
			return err
		}
		// Churn: replace a subtree with freshly allocated nodes holding
		// the same values (its old nodes die).
		if err := churnSubtree(t, root); err != nil {
			return err
		}
	}

	// The multiset of values must be preserved through all rounds and
	// collections (churn re-inserts identical values).
	var sumAfter uint64
	count, err := treeFold(t, root.Obj, &sumAfter)
	if err != nil {
		return err
	}
	if count != n {
		return fmt.Errorf("bisort: tree has %d nodes, want %d", count, n)
	}
	if sumAfter != sum {
		return fmt.Errorf("bisort: value sum changed %d -> %d", sum, sumAfter)
	}
	// The tree stays rooted (live-set convention, fft.go).
	return nil
}

func depthFor(n int) int {
	d := 0
	for (1<<(d+1))-1 <= n {
		d++
	}
	return d
}

func buildTree(t *jvm.Thread, rng *rand.Rand, depth int) (heap.Object, error) {
	if depth == 0 {
		return 0, nil
	}
	spec := heap.AllocSpec{NumRefs: 2, Payload: 8, Class: clsBisortNode}
	o, err := t.Alloc(spec)
	if err != nil {
		return 0, err
	}
	// Root the node while its children allocate, or a GC between the
	// allocations would reclaim it.
	r := t.J.Roots.Add(o)
	defer t.J.Roots.Remove(r)
	if err := t.J.Heap.WritePayloadWord(t.Ctx, r.Obj, 2, 0, uint64(rng.Uint32())); err != nil {
		return 0, err
	}
	left, err := buildTree(t, rng, depth-1)
	if err != nil {
		return 0, err
	}
	if left != 0 {
		if err := t.J.Heap.SetRef(t.Ctx, r.Obj, slotLeft, left); err != nil {
			return 0, err
		}
	}
	right, err := buildTree(t, rng, depth-1)
	if err != nil {
		return 0, err
	}
	if right != 0 {
		if err := t.J.Heap.SetRef(t.Ctx, r.Obj, slotRight, right); err != nil {
			return 0, err
		}
	}
	return r.Obj, nil
}

func nodeValue(t *jvm.Thread, o heap.Object) (uint64, error) {
	return t.J.Heap.ReadPayloadWord(t.Ctx, o, 2, 0)
}

func setNodeValue(t *jvm.Thread, o heap.Object, v uint64) error {
	return t.J.Heap.WritePayloadWord(t.Ctx, o, 2, 0, v)
}

func children(t *jvm.Thread, o heap.Object) (l, r heap.Object, err error) {
	var lr [2]heap.Object
	err = t.J.Heap.Refs(t.Ctx, o, lr[:])
	return lr[slotLeft], lr[slotRight], err
}

// bisortRec sorts the perfect subtree rooted at o into ascending
// (descending when down) in-order sequence — the JOlden kernel's
// swap-based bitonic recursion. cmpCost is one compare's compute charge.
func bisortRec(t *jvm.Thread, o heap.Object, down bool, cmpCost sim.Ticks) error {
	if o == 0 {
		return nil
	}
	l, r, err := children(t, o)
	if err != nil {
		return err
	}
	if l == 0 && r == 0 {
		return nil
	}
	if err := bisortRec(t, l, !down, cmpCost); err != nil {
		return err
	}
	if err := bisortRec(t, r, down, cmpCost); err != nil {
		return err
	}
	return bimerge(t, o, down, cmpCost)
}

// bimerge merges the bitonic sequence under o into monotone order by
// value swaps along symmetric paths.
func bimerge(t *jvm.Thread, o heap.Object, down bool, cmpCost sim.Ticks) error {
	l, r, err := children(t, o)
	if err != nil {
		return err
	}
	if l == 0 && r == 0 {
		return nil
	}
	if err := compareExchangeTrees(t, l, r, down, cmpCost); err != nil {
		return err
	}
	// The root value participates via rotation through the left spine:
	// classic JOlden keeps the root's value positioned by one more
	// compare-exchange against each child.
	for _, c := range []heap.Object{l, r} {
		if c == 0 {
			continue
		}
		if err := compareExchangeNodes(t, o, c, down, cmpCost); err != nil {
			return err
		}
	}
	if err := bimerge(t, l, down, cmpCost); err != nil {
		return err
	}
	return bimerge(t, r, down, cmpCost)
}

// compareExchangeTrees pairwise compare-exchanges corresponding nodes of
// two equal-shape subtrees.
func compareExchangeTrees(t *jvm.Thread, a, b heap.Object, down bool, cmpCost sim.Ticks) error {
	if a == 0 || b == 0 {
		return nil
	}
	if err := compareExchangeNodes(t, a, b, down, cmpCost); err != nil {
		return err
	}
	al, ar, err := children(t, a)
	if err != nil {
		return err
	}
	bl, br, err := children(t, b)
	if err != nil {
		return err
	}
	if err := compareExchangeTrees(t, al, bl, down, cmpCost); err != nil {
		return err
	}
	return compareExchangeTrees(t, ar, br, down, cmpCost)
}

func compareExchangeNodes(t *jvm.Thread, a, b heap.Object, down bool, cmpCost sim.Ticks) error {
	av, err := nodeValue(t, a)
	if err != nil {
		return err
	}
	bv, err := nodeValue(t, b)
	if err != nil {
		return err
	}
	t.Ctx.Clock.AdvanceTicks(cmpCost)
	if (av > bv) != down {
		if err := setNodeValue(t, a, bv); err != nil {
			return err
		}
		return setNodeValue(t, b, av)
	}
	return nil
}

// treeFold counts nodes and folds values (order-independent sum).
func treeFold(t *jvm.Thread, o heap.Object, sum *uint64) (int, error) {
	if o == 0 {
		return 0, nil
	}
	v, err := nodeValue(t, o)
	if err != nil {
		return 0, err
	}
	*sum += v
	l, r, err := children(t, o)
	if err != nil {
		return 0, err
	}
	nl, err := treeFold(t, l, sum)
	if err != nil {
		return 0, err
	}
	nr, err := treeFold(t, r, sum)
	if err != nil {
		return 0, err
	}
	return 1 + nl + nr, nil
}

// churnSubtree replaces the left-left-left subtree with fresh nodes
// carrying the same values, making the old nodes garbage. The parent node
// is pinned with a transient root because cloning allocates (and may
// therefore move everything).
func churnSubtree(t *jvm.Thread, root *gc.Root) error {
	parentObj := root.Obj
	old, _, err := children(t, parentObj)
	if err != nil {
		return err
	}
	if old == 0 {
		return nil
	}
	parent := t.J.Roots.Add(parentObj)
	defer t.J.Roots.Remove(parent)
	src := t.J.Roots.Add(old)
	fresh, err := cloneTree(t, src)
	t.J.Roots.Remove(src)
	if err != nil {
		return err
	}
	return t.J.Heap.SetRef(t.Ctx, parent.Obj, slotLeft, fresh)
}

// cloneTree deep-copies the subtree under src. Sources are pinned with
// transient roots across the allocations; the returned object must be
// stored by the caller before its next allocation.
func cloneTree(t *jvm.Thread, src *gc.Root) (heap.Object, error) {
	if src.Obj == 0 {
		return 0, nil
	}
	v, err := nodeValue(t, src.Obj)
	if err != nil {
		return 0, err
	}
	spec := heap.AllocSpec{NumRefs: 2, Payload: 8, Class: clsBisortNode}
	n, err := t.Alloc(spec) // may collect: src.Obj is refreshed via the root
	if err != nil {
		return 0, err
	}
	nr := t.J.Roots.Add(n)
	defer t.J.Roots.Remove(nr)
	if err := setNodeValue(t, nr.Obj, v); err != nil {
		return 0, err
	}
	for _, slot := range []int{slotLeft, slotRight} {
		child, err := t.J.Heap.Ref(t.Ctx, src.Obj, slot)
		if err != nil {
			return 0, err
		}
		if child == 0 {
			continue
		}
		childRoot := t.J.Roots.Add(child)
		cloned, err := cloneTree(t, childRoot)
		t.J.Roots.Remove(childRoot)
		if err != nil {
			return 0, err
		}
		if err := t.J.Heap.SetRef(t.Ctx, nr.Obj, slot, cloned); err != nil {
			return 0, err
		}
	}
	return nr.Obj, nil
}

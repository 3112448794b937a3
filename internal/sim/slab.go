package sim

import "slices"

// Ref names one slot of a Slab under the generation it was issued for.
// Freeing a slot bumps its generation, so a Ref to a freed slot is stale
// even once the slot is reissued. Generations start at 1 and skip 0 when
// they wrap, so the zero Ref is always stale.
type Ref struct {
	slot int32
	gen  uint32
}

// Index returns the slot r names.
func (r Ref) Index() int32 { return r.slot }

// Tag packs r into a callback tag, such as Engine.AfterTag's; RefOf
// unpacks it.
func (r Ref) Tag() uint64 { return uint64(r.gen)<<32 | uint64(uint32(r.slot)) }

// RefOf unpacks a tag made by Ref.Tag.
func RefOf(tag uint64) Ref { return Ref{slot: int32(uint32(tag)), gen: uint32(tag >> 32)} }

// Slab is a pool of T values: one slice of slots, reused through a free
// list threaded through the free slots and named by generation-counted
// Refs, so a steady state of allocating and freeing allocates nothing.
// The engine's events, the flow solver's flows and flow classes and the
// storage manager's operations each live in one. The pool never zeroes a
// value: whoever frees a slot resets first what must not outlive it.
//
// The read methods take the Slab by value. A Slab is small enough for the
// compiler to keep a local copy in registers, so a hot loop that reads
// through a copy (classes := n.classes) does not reload the slice on each
// iteration; a copy is valid until the next Alloc.
type Slab[T any] struct {
	slots []slot[T]
	free  int32 // 1 + the last freed slot, 0 when none is free
}

// slot is one value of a Slab, its current generation, never 0, and while
// it is free, 1 + the slot freed before it.
type slot[T any] struct {
	val  T
	gen  uint32
	next int32
}

// Alloc takes the last freed slot, or grows the slab by one, and returns
// its Ref and its value. A reissued slot's value is as its last owner left
// it.
func (s *Slab[T]) Alloc() (Ref, *T) {
	if s.free > 0 {
		i := s.free - 1
		x := &s.slots[i]
		s.free = x.next
		return Ref{slot: i, gen: x.gen}, &x.val
	}
	s.slots = append(s.slots, slot[T]{gen: 1})
	i := int32(len(s.slots) - 1)
	return Ref{slot: i, gen: 1}, &s.slots[i].val
}

// Free returns slot i to the pool. Its generation moves on at once, so
// every outstanding Ref to it is stale and the slot may be reissued
// immediately.
func (s *Slab[T]) Free(i int32) {
	x := &s.slots[i]
	if x.gen++; x.gen == 0 {
		x.gen = 1
	}
	x.next = s.free
	s.free = i + 1
}

// Live returns the value r names, or nil when r is stale.
func (s Slab[T]) Live(r Ref) *T {
	if uint(r.slot) >= uint(len(s.slots)) || s.slots[r.slot].gen != r.gen {
		return nil
	}
	return &s.slots[r.slot].val
}

// At returns slot i's value, issued or free.
func (s Slab[T]) At(i int32) *T { return &s.slots[i].val }

// Ref returns the Ref slot i is currently issued under.
func (s Slab[T]) Ref(i int32) Ref { return Ref{slot: i, gen: s.slots[i].gen} }

// Grow makes room for n more slots, so the next n Allocs allocate nothing.
func (s *Slab[T]) Grow(n int) { s.slots = slices.Grow(s.slots, n) }

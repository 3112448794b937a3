package workflow

import "math"

// maxEntries bounds a workflow's tasks and its files: their positions are
// int32 entries of the ID index.
const maxEntries = math.MaxInt32 - 1

// The ID index (Workflow.ids) maps task and file IDs to their positions
// in Workflow.tasks and Workflow.files. It is an open-addressed, linearly
// probed table of int32 entries and holds no pointer, so the collector
// never scans it: 0 is an empty slot, e > 0 the task at position e-1, and
// e < 0 the file at position -e-1. Tasks and files have separate ID
// spaces, so a probe skips the other kind's entries. The table is keyed by
// the FNV-1a hash of the ID, which fixes its layout for a given insertion
// order; its length is a power of two, and it is at most half full.
//
// AddTask and AddFile are its only writers. Workflows are shared by
// parallel runs, so a lookup never writes it.

// hashID is the 32-bit FNV-1a hash of id.
func hashID(id string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return h
}

// entryID returns the ID of the task or file entry e names.
func (w *Workflow) entryID(e int32) string {
	if e > 0 {
		return w.tasks[e-1].id
	}
	return w.files[-e-1].id
}

// lookup returns the entry of the task (task set) or file with ID id, or
// 0 when there is none.
func (w *Workflow) lookup(id string, task bool) int32 {
	if len(w.ids) == 0 {
		return 0
	}
	mask := uint32(len(w.ids) - 1)
	for i := hashID(id) & mask; ; i = (i + 1) & mask {
		e := w.ids[i]
		if e == 0 {
			return 0
		}
		if (e > 0) == task && w.entryID(e) == id {
			return e
		}
	}
}

// insertID adds entry e, whose task or file is already appended, doubling
// the table first when it would become more than half full.
func (w *Workflow) insertID(e int32) {
	if 2*(len(w.tasks)+len(w.files)) > len(w.ids) {
		old := w.ids
		w.ids = make([]int32, max(8, 2*len(old)))
		for _, o := range old {
			if o != 0 {
				w.place(o)
			}
		}
	}
	w.place(e)
}

// place puts e into the first empty slot of its probe sequence.
func (w *Workflow) place(e int32) {
	mask := uint32(len(w.ids) - 1)
	i := hashID(w.entryID(e)) & mask
	for w.ids[i] != 0 {
		i = (i + 1) & mask
	}
	w.ids[i] = e
}

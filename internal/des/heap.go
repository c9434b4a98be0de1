package des

// Event is a scheduled callback in virtual time. Events are created via
// Kernel.At / Kernel.After and may be canceled before they fire. The
// kernel's own events carry the process to resume (wake) or the Action
// to fire (Call) in place of a callback.
type Event struct {
	at       float64
	seq      uint64
	fn       func()
	proc     *Proc
	act      Action
	index    int // position in the heap, -1 once fired or canceled
	canceled bool
}

// Time reports the virtual time at which the event is (or was) scheduled.
func (e *Event) Time() float64 { return e.at }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// eventHeap is a binary min-heap ordered by (time, sequence). It is
// hand-rolled rather than using container/heap to keep the index
// bookkeeping explicit and allocation-free on the hot path.
type eventHeap struct {
	items []*Event
}

func (h *eventHeap) len() int { return len(h.items) }

// earliestBut reports the time of the earliest queued event other than
// skip (which may be nil), and false when there is none. Only the root
// can hide an earlier event than its children, so this reads at most
// three entries.
func (h *eventHeap) earliestBut(skip *Event) (at float64, ok bool) {
	items := h.items
	switch {
	case len(items) == 0:
		return 0, false
	case items[0] != skip:
		return items[0].at, true
	case len(items) == 1:
		return 0, false
	case len(items) == 2 || items[1].at <= items[2].at:
		return items[1].at, true
	default:
		return items[2].at, true
	}
}

func (h *eventHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].index = i
	h.items[j].index = j
}

func (h *eventHeap) push(e *Event) {
	e.index = len(h.items)
	h.items = append(h.items, e)
	h.up(e.index)
}

func (h *eventHeap) pop() *Event {
	if len(h.items) == 0 {
		return nil
	}
	top := h.items[0]
	h.remove(0)
	return top
}

// remove deletes the event at position i, restoring heap order; an
// index outside the heap (-1: already fired or canceled) is a no-op.
func (h *eventHeap) remove(i int) {
	n := len(h.items) - 1
	if i < 0 || i > n {
		return
	}
	if i != n {
		h.swap(i, n)
	}
	h.items[n].index = -1
	h.items[n] = nil
	h.items = h.items[:n]
	if i != n && !h.down(i) {
		h.up(i)
	}
}

func (h *eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts the item at i toward the leaves. It reports whether the
// item moved.
func (h *eventHeap) down(i int) bool {
	start := i
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && h.less(right, left) {
			smallest = right
		}
		if !h.less(smallest, i) {
			break
		}
		h.swap(i, smallest)
		i = smallest
	}
	return i != start
}

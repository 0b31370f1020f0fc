package stats

import "fmt"

// SlidingWindow keeps the most recent capacity observations and exposes
// their mean. The run-time monitor uses it to smooth per-period latency
// and utilization samples.
type SlidingWindow struct {
	buf  []float64
	next int
	full bool
	sum  float64
}

// NewSlidingWindow returns a window of the given capacity (≥ 1).
func NewSlidingWindow(capacity int) *SlidingWindow {
	if capacity < 1 {
		panic(fmt.Sprintf("stats: SlidingWindow capacity %d < 1", capacity))
	}
	return &SlidingWindow{buf: make([]float64, capacity)}
}

// Push adds an observation, evicting the oldest when full.
func (w *SlidingWindow) Push(x float64) {
	if w.full {
		w.sum -= w.buf[w.next]
	}
	w.buf[w.next] = x
	w.sum += x
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
		w.full = true
	}
}

// Len returns the number of observations currently held.
func (w *SlidingWindow) Len() int {
	if w.full {
		return len(w.buf)
	}
	return w.next
}

// Mean returns the mean of held observations; it panics when empty.
func (w *SlidingWindow) Mean() float64 {
	n := w.Len()
	if n == 0 {
		panic("stats: Mean of empty SlidingWindow")
	}
	return w.sum / float64(n)
}

// Last returns the most recent observation; it panics when empty.
func (w *SlidingWindow) Last() float64 {
	if w.Len() == 0 {
		panic("stats: Last of empty SlidingWindow")
	}
	i := w.next - 1
	if i < 0 {
		i = len(w.buf) - 1
	}
	return w.buf[i]
}

// Reset empties the window.
func (w *SlidingWindow) Reset() {
	w.next, w.full, w.sum = 0, false, 0
}

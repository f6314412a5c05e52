package sat

// varHeap is an indexed binary max-heap of variables ordered by VSIDS
// activity. It supports decrease/increase-key via the position index, as
// required when activities are bumped during conflict analysis.
type varHeap struct {
	activity *[]float64 // points at the solver's activity slice
	heap     []Var
	pos      []int32 // pos[v] = index of v in heap, or -1
}

func newVarHeap(activity *[]float64) *varHeap {
	return &varHeap{activity: activity}
}

func (h *varHeap) less(a, b Var) bool {
	return (*h.activity)[a] > (*h.activity)[b]
}

// grow ensures the position index covers variable v.
func (h *varHeap) grow(v Var) {
	for int(v) >= len(h.pos) {
		h.pos = append(h.pos, -1)
	}
}

func (h *varHeap) contains(v Var) bool {
	return int(v) < len(h.pos) && h.pos[v] >= 0
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) push(v Var) {
	h.grow(v)
	if h.contains(v) {
		return
	}
	h.pos[v] = int32(len(h.heap))
	h.heap = append(h.heap, v)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() Var {
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.pos[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.pos[top] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return top
}

// update restores heap order after v's activity increased.
func (h *varHeap) update(v Var) {
	if h.contains(v) {
		h.up(int(h.pos[v]))
	}
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(v, h.heap[parent]) {
			break
		}
		h.heap[i] = h.heap[parent]
		h.pos[h.heap[i]] = int32(i)
		i = parent
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		best := left
		if right := left + 1; right < n && h.less(h.heap[right], h.heap[left]) {
			best = right
		}
		if !h.less(h.heap[best], v) {
			break
		}
		h.heap[i] = h.heap[best]
		h.pos[h.heap[i]] = int32(i)
		i = best
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}

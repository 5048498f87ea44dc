package workload

import "time"

// Arrival is a key of arrival order: an instant and the index of what
// arrives then (a stream for Merge, a row for trace.Read). It holds no
// pointer, so sorting moves plain words.
type Arrival struct {
	At time.Duration
	Of int
}

// SortArrivals orders a by At, stably: arrivals at the same instant keep
// their order in a. It is a least-significant-digit radix sort on the
// bytes of At with its sign bit flipped, so negative instants come
// first. A byte that every key shares costs no pass: a day of
// nanosecond arrivals takes six.
func SortArrivals(a []Arrival) {
	if len(a) < 2 {
		return
	}
	var count [8][256]int
	for _, x := range a {
		k := radixKey(x.At)
		for d := range count {
			count[d][byte(k>>(8*d))]++
		}
	}
	src, dst := a, make([]Arrival, len(a))
	for d := range count {
		c := &count[d]
		if c[byte(radixKey(src[0].At)>>(8*d))] == len(a) {
			continue
		}
		sum := 0
		for i, n := range c {
			c[i], sum = sum, sum+n
		}
		for _, x := range src {
			b := byte(radixKey(x.At) >> (8 * d))
			dst[c[b]] = x
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// radixKey maps a Duration to a uint64 of the same order.
func radixKey(d time.Duration) uint64 { return uint64(d) ^ 1<<63 }

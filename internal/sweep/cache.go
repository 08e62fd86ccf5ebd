package sweep

import "sync"

// Cache is a concurrency-safe memoization table with singleflight
// semantics: for each key the compute function runs exactly once, even
// when many workers ask for the key simultaneously — later callers
// block on the first computation and share its result. Errors (and
// recovered panics) are cached like values: the repo's characterization
// points are deterministic, so recomputing a failed point would only
// fail again.
//
// The zero value is ready to use and unbounded: entries live until
// Reset. Setting Max bounds the table to that many entries, evicting
// the oldest-inserted key first; an evicted key is simply recomputed on
// its next request, which for the repo's pure compute functions yields
// the identical value. Eviction never interrupts a computation in
// flight — callers already waiting on it still share its result. The
// cache is in-memory and intended for intra-process reuse (e.g. the
// test-flow optimizer re-probing characterization points).
type Cache[K comparable, V any] struct {
	// Max caps the number of entries (<= 0 = unbounded). Set it before
	// the first Do.
	Max int

	mu    sync.Mutex
	m     map[K]*cacheEntry[V]
	order []K // insertion ring of a bounded cache; order[next] is the oldest once full
	next  int
}

type cacheEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// Do returns the cached value for key, computing it with compute on the
// first request. compute panics are converted to *PanicError.
func (c *Cache[K, V]) Do(key K, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*cacheEntry[V])
	}
	e, ok := c.m[key]
	if !ok {
		e = &cacheEntry[V]{}
		c.insert(key, e)
	}
	c.mu.Unlock()

	e.once.Do(func() {
		e.val, e.err = protect(struct{}{}, -1, func(struct{}, int) (V, error) { return compute() })
	})
	return e.val, e.err
}

// insert adds a new entry, evicting the oldest one when the table is
// full. Callers hold c.mu.
func (c *Cache[K, V]) insert(key K, e *cacheEntry[V]) {
	c.m[key] = e
	if c.Max <= 0 {
		return
	}
	if len(c.order) < c.Max {
		c.order = append(c.order, key)
		return
	}
	delete(c.m, c.order[c.next])
	c.order[c.next] = key
	c.next = (c.next + 1) % c.Max
}

// Len reports the number of cached entries (including in-flight ones).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Reset drops every cached entry.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	c.m, c.order, c.next = nil, nil, 0
	c.mu.Unlock()
}

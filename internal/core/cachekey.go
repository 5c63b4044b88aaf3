package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// CacheKey returns the content address of the simulation these options
// describe: a hex SHA-256 over the JSON form of the withDefaults options,
// with the execution-only fields cleared. Determinism makes it a true
// content address; the tuning service's result cache and singleflight
// deduplication key on it. Spelling cannot split the cache: aliases
// resolve through the registries ("rd" and "recursive_doubling" share a
// key), map keys marshal sorted, and defaulted fields hash at their
// effective values. Every field the JSON form carries is hashed, so a new
// Options field moves the key unless clearExecutionOnly or a `json:"-"`
// tag excludes it on purpose.
func (o Options) CacheKey() string {
	o = o.withDefaults()
	o.clearExecutionOnly()
	data, err := json.Marshal(o)
	if err != nil {
		panic("core: options do not marshal: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// clearExecutionOnly zeroes the fields that select how a run executes but
// cannot change a reported number, so hashing them would split the cache:
// NoFold, whose results the parity suites pin bit-identical. The Profiler
// hook is the other such field; its `json:"-"` tag keeps it out of the JSON.
func (o *Options) clearExecutionOnly() {
	o.NoFold = false
}

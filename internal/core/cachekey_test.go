package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mpi"
)

// FuzzCacheKey checks the content address on options decoded from
// arbitrary JSON (seed corpus: testdata/fuzz/FuzzCacheKey). Respelling
// never moves the key: a JSON round trip, defaulting, benchmark and
// algorithm aliases, map order. Giving a hashed field another effective
// value always moves it, and changing an excluded one never does. The
// fields are found by reflection: a field is excluded when
// clearExecutionOnly clears it or its JSON tag is "-", so a new Options
// field is covered without an edit here.
func FuzzCacheKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var o, back Options
		if json.Unmarshal(data, &o) != nil {
			return
		}
		key := o.CacheKey()
		wire, _ := json.Marshal(o)
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("%s does not decode: %v", wire, err)
		}
		respelled := []Options{back, o.withDefaults()}
		if spec, err := LookupBenchmark(string(o.Benchmark)); err == nil {
			for _, name := range append([]string{string(spec.Name)}, spec.Aliases...) {
				p := o
				p.Benchmark = Benchmark(shout(name))
				respelled = append(respelled, p)
			}
		}
		if _, err := o.mpiAlgorithms(); err == nil {
			// Canonical and loud spellings of both halves, in new maps; an
			// empty name forces nothing, so dropping it respells too.
			canon, loud := o, o
			canon.Algorithms, loud.Algorithms = map[string]string{}, map[string]string{}
			for coll, name := range o.Algorithms {
				if name != "" {
					c, _ := mpi.ParseCollective(coll)
					canon.Algorithms[string(c)], _ = mpi.CanonicalAlgorithm(c, name)
					loud.Algorithms[shout(coll)] = shout(name)
				}
			}
			respelled = append(respelled, canon, loud)
		}
		for i, p := range respelled {
			if p.CacheKey() != key {
				t.Fatalf("respelling %d %+v moved the key of %s", i, p, data)
			}
		}

		c := o.withDefaults()
		cleared := c
		cleared.clearExecutionOnly()
		for _, l := range leaves(reflect.TypeFor[Options](), "", nil) {
			p, ok := perturbed(c, l)
			if !ok {
				t.Fatalf("no other value of %s survives withDefaults; teach variants its kind", l.path)
			}
			pe := p.withDefaults()
			pe.clearExecutionOnly()
			excluded := l.unhashed || reflect.DeepEqual(l.get(&pe), l.get(&cleared))
			if moved := p.CacheKey() != key; moved == excluded {
				t.Fatalf("%s = %v (excluded %v) moved the key %v, from %s", l.path, l.get(&p), excluded, moved, data)
			}
		}
	})
}

// leaf is a field of Options, nested struct fields flattened.
type leaf struct {
	path     string
	index    []int
	unhashed bool // tagged `json:"-"`
}

func (l leaf) field(o *Options) reflect.Value { return reflect.ValueOf(o).Elem().FieldByIndex(l.index) }
func (l leaf) get(o *Options) any             { return l.field(o).Interface() }

func leaves(t reflect.Type, prefix string, index []int) []leaf {
	var out []leaf
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		idx := append(append([]int(nil), index...), i)
		if sf.Type.Kind() == reflect.Struct {
			out = append(out, leaves(sf.Type, prefix+sf.Name+".", idx)...)
		} else if sf.IsExported() {
			out = append(out, leaf{prefix + sf.Name, idx, sf.Tag.Get("json") == "-"})
		}
	}
	return out
}

// perturbed returns c with leaf l set to another value that withDefaults
// keeps (to any other value when l is unhashed).
func perturbed(c Options, l leaf) (Options, bool) {
	for _, v := range variants(l.field(&c)) {
		p := c
		l.field(&p).Set(v)
		pe := p.withDefaults()
		if l.unhashed || !reflect.DeepEqual(l.get(&pe), l.get(&c)) {
			return p, true
		}
	}
	return c, false
}

// variants returns other values of v's type. Integers take the other
// values modulo 16 whose JSON form decodes back, which keeps enumerations
// valid.
func variants(v reflect.Value) []reflect.Value {
	t := v.Type()
	switch v.Kind() {
	case reflect.Bool:
		return []reflect.Value{reflect.ValueOf(!v.Bool()).Convert(t)}
	case reflect.String:
		return []reflect.Value{reflect.ValueOf(v.String() + "x").Convert(t)}
	case reflect.Pointer:
		return []reflect.Value{reflect.New(t.Elem())}
	case reflect.Slice:
		grown := reflect.AppendSlice(reflect.MakeSlice(t, 0, v.Len()+1), v)
		return []reflect.Value{reflect.Append(grown, reflect.ValueOf(v.Len()+1).Convert(t.Elem()))}
	case reflect.Map:
		var out []reflect.Value
		for _, x := range []string{"x", "xx"} {
			m := reflect.MakeMap(t)
			for _, k := range v.MapKeys() {
				m.SetMapIndex(k, v.MapIndex(k))
			}
			m.SetMapIndex(reflect.ValueOf("zz"), reflect.ValueOf(x))
			out = append(out, m)
		}
		return out
	case reflect.Int:
		var out []reflect.Value
		for k := int64(1); k < 16; k++ {
			n, back := reflect.New(t), reflect.New(t)
			n.Elem().SetInt((v.Int() + k) & 15)
			wire, _ := json.Marshal(n.Interface())
			if json.Unmarshal(wire, back.Interface()) == nil && back.Elem().Int() == n.Elem().Int() {
				out = append(out, n.Elem())
			}
		}
		return out
	}
	panic("variants: no values for kind " + v.Kind().String())
}

// shout respells a registry name loudly: upper case, dashes for
// underscores. Both registries normalise it back.
func shout(s string) string { return strings.ToUpper(strings.ReplaceAll(s, "_", "-")) }

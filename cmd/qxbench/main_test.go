package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestCheckModeFlags: a flag that only the other mode reads must fail the
// run with an error naming it, instead of being ignored.
func TestCheckModeFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error; "" means accepted
	}{
		{[]string{"-names", "ex-1_166", "-summary"}, ""},
		{[]string{"-batch", "exact", "-sat-binary", "-json", "-baseline", "B.json"}, ""},
		{[]string{"-baseline", "B.json", "-names", "ex-1_166"}, "-baseline is only valid with -batch"},
		{[]string{"-sat-binary"}, "-sat-binary is only valid with -batch"},
		{[]string{"-ladder", "-summary"}, "-ladder is only valid with -batch"},
		{[]string{"-batch", "exact", "-summary"}, "-summary is not valid with -batch"},
		{[]string{"-batch", "exact", "-seed-sat"}, "-seed-sat is not valid with -batch"},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("qxbench", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		batch := fs.String("batch", "", "")
		fs.String("names", "", "")
		fs.String("baseline", "", "")
		for _, name := range []string{"summary", "sat-binary", "json", "ladder", "seed-sat"} {
			fs.Bool(name, false, "")
		}
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		err := checkModeFlags(fs, *batch != "")
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%v: unexpected error %v", c.args, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%v: err = %v, want %q", c.args, err, c.want)
		}
	}
}

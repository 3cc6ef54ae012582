package experiments

import (
	"fmt"
	"io"
)

// Output is one computed experiment in both of the cmd/experiments
// forms. Data and Render read the same computed value, so the text and
// the JSON of one run always agree.
type Output struct {
	// Data is the experiment's JSON data: the data field of its Envelope.
	Data any
	// Render prints the experiment's text form.
	Render func(w io.Writer)
}

// table lists every experiment in presentation order: the
// cmd/experiments -exp values, its "all" sequence and JSONPayload's
// names all come from it. Adding an experiment means adding its output
// function (render.go) and one entry here.
var table = []struct {
	name string
	run  func(Options) Output
}{
	{"fig3", figure3Output},
	{"fig5", figure5Output},
	{"fig10", figure10Output},
	{"table2", table2Output},
	{"suite", suiteOutput},
	{"fig18", figure18Output},
	{"fig19", figure19Output},
	{"fig20", figure20Output},
	{"ablation", ablationOutput},
}

// Names lists every experiment in presentation order.
func Names() []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.name
	}
	return names
}

// Run computes the named experiment once and returns it in both forms.
// Names match the cmd/experiments -exp values (see Names).
func Run(name string, opt Options) (Output, error) {
	for _, e := range table {
		if e.name == name {
			return e.run(opt), nil
		}
	}
	return Output{}, fmt.Errorf("experiments: unknown experiment %q", name)
}

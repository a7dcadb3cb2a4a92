package experiments_test

import (
	"context"
	"fmt"

	"repro/internal/experiments"
)

// printRows is an Emitter that prints rows and notes as they arrive.
type printRows struct{}

func (printRows) Header(...string)    {}
func (printRows) Row(cells ...string) { fmt.Println("row:", cells) }
func (printRows) Note(text string)    { fmt.Println("note:", text) }

// ExampleRegistry_Run registers a custom experiment and streams its output
// through an Emitter — the same interface the built-in e1..e21 use.
func ExampleRegistry_Run() {
	reg := experiments.NewRegistry()
	err := reg.Register(experiments.Experiment{
		ID:    "demo",
		Title: "a two-row demo table",
		Stream: func(ctx context.Context, o experiments.Options, em experiments.Emitter) error {
			em.Header("x", "x^2")
			for x := 1; x <= 2; x++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				em.Row(fmt.Sprint(x), fmt.Sprint(x*x))
			}
			em.Note("rows stream as they are produced")
			return nil
		},
	})
	if err != nil {
		panic(err)
	}

	err = reg.Run(context.Background(), "demo", experiments.Options{}, printRows{})
	fmt.Println("err:", err)
	// Output:
	// row: [1 1]
	// row: [2 4]
	// note: rows stream as they are produced
	// err: <nil>
}

// ExampleDefault shows the built-in registry holding every experiment of
// the paper reproduction.
func ExampleDefault() {
	reg := experiments.Default()
	list := reg.List()
	fmt.Println("experiments:", len(list))
	fmt.Println("first:", list[0].ID)
	_, ok := reg.Lookup("e4")
	fmt.Println("e4 registered:", ok)
	// Output:
	// experiments: 21
	// first: e1
	// e4 registered: true
}

package closure

// A phase table held in a variable, as the session pipelines are.
var phases = []struct{ body func() error }{{firstBody}, {secondBody}}

func firstBody() error  { return nil }
func secondBody() error { return nil }

func RunPhases() error {
	for _, p := range phases {
		if err := p.body(); err != nil {
			return err
		}
	}
	return nil
}

// A dispatch map, reached through a second variable.
var (
	handlers = map[string]func(int) int{"double": double, "square": square}
	dispatch = handlers
)

func double(x int) int { return 2 * x }
func square(x int) int { return x * x }

func Dispatch(op string, x int) int { return dispatch[op](x) }

// A method value.
type counter struct{ n int }

func (c *counter) incr() { c.n++ }

func Count() int {
	c := &counter{}
	f := c.incr
	f()
	return c.n
}

func unreached() {}

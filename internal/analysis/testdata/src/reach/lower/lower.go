package lower

// Runner is implemented by a package that imports this one.
type Runner interface{ Run() }

func Drive(r Runner) { r.Run() }

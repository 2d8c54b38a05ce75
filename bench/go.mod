module parsec/bench

go 1.22

require parsec v0.0.0

replace parsec => ../

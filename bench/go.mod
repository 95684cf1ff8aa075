module github.com/hydrogen-sim/hydrogen/bench

go 1.22

require github.com/hydrogen-sim/hydrogen v0.0.0

replace github.com/hydrogen-sim/hydrogen => ../

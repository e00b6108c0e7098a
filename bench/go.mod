module twinsearch/bench

go 1.24

require twinsearch v0.0.0

replace twinsearch => ../

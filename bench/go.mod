module pidcan/bench

go 1.24

require pidcan v0.0.0

replace pidcan => ../

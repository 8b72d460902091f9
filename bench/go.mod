module coflowsched/bench

go 1.22

require coflowsched v0.0.0

replace coflowsched => ../

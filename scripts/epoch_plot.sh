#!/bin/sh
# epoch_plot.sh — render a telemetry CSV (one file of hydroexp
# -telemetry DIR, or GET /v1/jobs/{id}/telemetry?format=csv) as the
# knob-trajectory table behind the paper's Figs. 8-11: one row per epoch
# where the (cap, bw, tok) operating point moved, plus the first and
# last epochs, followed by a convergence summary line.
#
# Usage: epoch_plot.sh [file.csv]        (stdin when no file is given)
#
# Columns are located by header name, not position, so the script stays
# correct if obs.EpochPoint grows fields. Needs only awk.
set -eu

awk -F, '
NR == 1 {
    for (i = 1; i <= NF; i++) col[$i] = i
    split("epoch end_cycle weighted_ipc cap_ways bw_groups tok_idx", need, " ")
    for (i in need) if (!(need[i] in col)) {
        printf "epoch_plot: column %s missing from header\n", need[i] > "/dev/stderr"
        exit 1
    }
    printf "%-7s %-12s %-6s %-4s %-4s %-8s %s\n", \
        "epoch", "end_cycle", "cap", "bw", "tok", "wIPC", "change"
    next
}
{
    epoch = $col["epoch"]; cycle = $col["end_cycle"]; wipc = $col["weighted_ipc"]
    cap = $col["cap_ways"]; bw = $col["bw_groups"]; tok = $col["tok_idx"]
    rows++
    change = ""
    if (rows == 1) {
        change = "start"
    } else {
        if (cap != pcap) { change = change "cap " pcap "->" cap " "; moves++ }
        if (bw != pbw) { change = change "bw " pbw "->" bw " "; moves++ }
        if (tok != ptok) { change = change "tok " ptok "->" tok " "; moves++ }
    }
    if (change != "") {
        printf "%-7s %-12s %-6s %-4s %-4s %-8.3f %s\n", \
            epoch, cycle, cap, bw, tok, wipc, change
        lastshown = epoch
    }
    pcap = cap; pbw = bw; ptok = tok
    lastrow = sprintf("%-7s %-12s %-6s %-4s %-4s %-8.3f %s", \
        epoch, cycle, cap, bw, tok, wipc, "final")
    lastepoch = epoch
}
END {
    if (rows == 0) {
        print "epoch_plot: no telemetry rows" > "/dev/stderr"
        exit 1
    }
    if (lastshown != lastepoch) print lastrow
    printf "%d epochs, %d knob moves, converged at (cap=%s, bw=%s, tok=%s)\n", \
        rows, moves, pcap, pbw, ptok
}
' "${1:--}"

#!/bin/sh
# Stand-in for PlantUML: "renders" a diagram text by copying it to .svg.
cp "$1" "${1%.txt}.svg"

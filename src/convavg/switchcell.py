"""Conduction-mode tags of the MOSFET/diode switch cell.

Port sign conventions used throughout the package:

* V1, I1 -- average voltage across / current through the transistor
  position (I1 > 0 when the cell is processing power).
* V2, I2 -- average voltage blocked by / current through the diode
  position, with V2 > 0 while the diode blocks in normal operation.
"""

CCM = "CCM"
DCM = "DCM"

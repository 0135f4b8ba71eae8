"""Physical constants used across the package.

Natural units everywhere in the physics core: hbar = c = epsilon_0 = 1,
energies in eV.  Every conversion factor between laboratory units and
natural units is derived from the primary constants below; no other
module defines its own numeric constants.
"""

import math

# Primary constants (CODATA 2018 / exact SI definitions)
SPEED_OF_LIGHT_M_S = 299792458.0          # m/s, exact
ELEMENTARY_CHARGE_C = 1.602176634e-19     # C (also J per eV), exact
HBAR_J_S = 1.054571817e-34                # J s
ELECTRON_MASS_EV = 510998.95              # eV
FINE_STRUCTURE = 1.0 / 137.035999084      # dimensionless

# Derived constants
HBAR_EV_S = HBAR_J_S / ELEMENTARY_CHARGE_C        # eV s (= 6.582119569e-16)
HBARC_EV_M = HBAR_EV_S * SPEED_OF_LIGHT_M_S       # eV m; 1 eV^-1 of length in meters
JOULES_PER_EV = ELEMENTARY_CHARGE_C

# Electron charge in natural Heaviside-Lorentz units: e^2 = 4 pi alpha
E_SQUARED = 4.0 * math.pi * FINE_STRUCTURE
E_CHARGE = math.sqrt(E_SQUARED)

# 1 m^-3 expressed in eV^3 (number density conversion)
PER_M3_TO_EV3 = HBARC_EV_M ** 3

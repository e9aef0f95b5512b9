"""Hybrid VLC-RF secrecy toolkit.

Models an indoor downlink over visible light with simultaneous lightwave
information and power transfer, an energy-harvesting RF uplink overheard
by an eavesdropper, and solves for the TDMA time-slot split that maximizes
the uplink secrecy capacity subject to a downlink sum-rate target.
Importing the package loads none of its modules; import them by name
(``vlcrf.experiment``, ``vlcrf.dc_solver``, ...).  ``vlcrf.cli`` is the
command-line front end.
"""

__version__ = "0.1.0"

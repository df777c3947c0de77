"""Cold-start-aware pipeline scheduling for LLM inference on heterogeneous
wireless edge devices: exact layer-partition/device-assignment optimization,
baseline strategies, timeline simulation, and Gantt rendering."""

"""Every program name the traced run wraps, in one list.

Names are resolved lazily when a traced run starts.  One that the
program no longer has is reported under ``trace.unresolved_targets`` and
the metrics fed only by it read 0 — a refactor that renames or removes a
layer does not crash the benchmark it is judged by; update this list in
the change that moves the name.

``metric`` is where a target's *self* time goes (its busy time minus the
traced calls nested in it), so the ``_busy_s`` metrics of all layers plus
``exec.dispatch_self_s`` tile the traced wall.
"""

from __future__ import annotations

from tracer import Target

TARGETS = [
    # exec: the dispatch loops.  Self time = heap pops, event callbacks
    # and (asyncio) the per-pause sleep set-up, minus every process step.
    Target("repro.sim.engine:Simulator.run", "exec.dispatch_self_s",
           coarse=True, count_attr="processed_events",
           count_metric="exec.sim_events"),
    Target("repro.exec.aio:AsyncioKernel.run", "exec.dispatch_self_s",
           coarse=True, count_attr="processed_events",
           count_metric="exec.sim_events"),
    Target("repro.exec.live:LiveWrapper._feed", "exec.live_pump_busy_s"),
    # core: optimizer / scheduler / processor.
    Target("repro.core.dqo:DynamicQEPOptimizer.run", "core.dqo_busy_s",
           coarse=True),
    Target("repro.core.dqs:DynamicQueryScheduler.plan", "core.dqs_busy_s",
           coarse=True),
    Target("repro.core.dqp:DynamicQueryProcessor.execute",
           "core.dqp_busy_s"),
    Target("repro.core.fragments:Fragment.process_batch", "core.dqp_busy_s"),
    # mediator: communication manager, source queues, temp I/O.
    Target("repro.mediator.comm:CommunicationManager.deliver",
           "mediator.deliver_busy_s"),
    Target("repro.mediator.queues:SourceQueue.take_batch",
           "mediator.take_batch_busy_s"),
    Target("repro.mediator.buffer:BufferManager.chunk_io",
           "mediator.buffer_io_busy_s"),
    Target("repro.mediator.buffer:TempWriter.write",
           "mediator.buffer_io_busy_s"),
    Target("repro.mediator.buffer:TempWriter.finish",
           "mediator.buffer_io_busy_s"),
    Target("repro.mediator.buffer:TempReader.read_now",
           "mediator.buffer_io_busy_s"),
    # resources: broker, admission, tenant accounting.
    Target("repro.resources.broker:MemoryBroker.lease",
           "resources.broker_busy_s", coarse=True),
    Target("repro.resources.broker:MemoryBroker.release",
           "resources.broker_busy_s", coarse=True),
    Target("repro.resources.broker:MemoryBroker.reclaim",
           "resources.broker_busy_s", coarse=True),
    Target("repro.resources.broker:MemoryBroker.expand_lease",
           "resources.broker_busy_s", coarse=True),
    Target("repro.resources.broker:MemoryBroker.leased_bytes",
           "resources.broker_busy_s"),
    Target("repro.resources.admission:AdmissionController.request",
           "resources.admission_busy_s", coarse=True),
    Target("repro.resources.admission:AdmissionController.on_capacity",
           "resources.admission_busy_s"),
    Target("repro.resources.tenants:TenantRegistry.begin",
           "resources.tenant_busy_s"),
    Target("repro.resources.tenants:TenantRegistry.finish",
           "resources.tenant_busy_s"),
    # service: the control plane around one submission.
    Target("repro.service.service:QueryService.submit",
           "service.submit_busy_s", coarse=True),
    Target("repro.service.backend:InProcessBackend.launch",
           "service.launch_busy_s", coarse=True),
    Target("repro.service.service:QueryService._finish",
           "service.finish_busy_s"),
    Target("repro.service.service:QueryService.snapshot",
           "service.snapshot_busy_s"),
    # plan / optimizer / catalog: workload construction.
    Target("repro.experiments.workloads:figure5_workload",
           "plan.build_busy_s"),
]

#: kernel processes are billed by the prefix of their process name, first
#: match wins.  Self time of a process is what its generator does outside
#: the targets above.
PROCESS_TARGETS = [
    ("wrapper:", Target("process:wrapper", "wrappers.source_busy_s")),
    ("sender:", Target("process:sender", "wrappers.source_busy_s")),
    ("live:", Target("process:live", "exec.live_pump_busy_s")),
    ("write:", Target("process:temp-write", "mediator.buffer_io_busy_s")),
    ("read:", Target("process:temp-read", "mediator.buffer_io_busy_s")),
    ("telemetry-sampler",
     Target("process:telemetry-sampler", "observability.sampler_busy_s")),
    # launchers: per-query set-up inside the kernel (World, wrappers, DQx
    # construction) before the optimizer's own generator takes over.
    ("query:", Target("process:query", "core.driver_self_s", coarse=True)),
]

#: the optimizer process ("engine", or the submission id in the service)
#: and anything a later change adds.
OTHER_PROCESS = Target("process:other", "core.driver_self_s")

#: the harness's own frame around each public call it makes
#: (``RunSpec.execute()``, ``MultiQuerySpec.execute()``): what runs there
#: outside the kernel is engine set-up and result collection.
DRIVER = Target("driver:execute", "core.driver_self_s", coarse=True)

#: the closed-loop client coroutines of ``service_saturated`` (harness
#: code on the service loop; billed so it cannot hide in the residual).
CLIENT = Target("driver:client", "gen.client_busy_s")

HARNESS_FRAMES = [DRIVER, CLIENT]

#: per-layer counts that are simply "calls of one target".
CALL_COUNTS = {
    "core.dqp_batches": "repro.core.fragments:Fragment.process_batch",
    "core.dqs_plans": "repro.core.dqs:DynamicQueryScheduler.plan",
    "mediator.messages_delivered":
        "repro.mediator.comm:CommunicationManager.deliver",
    "mediator.temp_io_ops": "repro.mediator.buffer:BufferManager.chunk_io",
    "resources.admission_requests":
        "repro.resources.admission:AdmissionController.request",
}
